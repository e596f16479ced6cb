package catalog

import (
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spec"
)

// TestRegistryBasics: a catalog holds valid problems only, one per name
// (later wins, so a spec can override a builtin), sorted by name.
func TestRegistryBasics(t *testing.T) {
	if _, err := byName([]Problem{Synthetic(), {Name: ""}}); err == nil {
		t.Fatal("cataloged a nameless problem")
	}
	if _, err := byName([]Problem{{Name: "x"}}); err == nil {
		t.Fatal("cataloged a problem without a space")
	}
	override := Synthetic()
	override.Description = "replaced"
	other := Synthetic()
	other.Name = "another"
	got, err := byName([]Problem{Synthetic(), override, other})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "another" || got[1].Name != "synthetic" {
		t.Fatalf("catalog = %v, want [another synthetic]", names(got))
	}
	if got[1].Description != "replaced" {
		t.Fatal("a later problem of the same name did not replace the earlier one")
	}
}

func names(problems []Problem) []string {
	out := make([]string, len(problems))
	for i, p := range problems {
		out[i] = p.Name
	}
	return out
}

// get returns the named problem of a catalog.
func get(t *testing.T, problems []Problem, name string) Problem {
	t.Helper()
	for _, p := range problems {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no problem %q in %v", name, names(problems))
	return Problem{}
}

func TestRegisterBuiltins(t *testing.T) {
	all, err := builtins("test", false)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := byName(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != len(all) {
		t.Fatalf("builtins repeat a name: %v", names(all))
	}
	get(t, problems, "synthetic")
	get(t, problems, "kfusion/ODROID-XU3")
}

// specsDir points at the shipped catalogs relative to this package.
func specsDir() string { return filepath.Join("..", "..", "specs") }

func TestShippedSpecsLoadAndRegister(t *testing.T) {
	problems, err := LoadDir(specsDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := names(problems); strings.Join(got, " ") != "compiler-flags constrained-synthetic dbms-knobs" {
		t.Fatalf("loaded %v, want the three shipped specs sorted by name", got)
	}
	for _, p := range problems {
		if p.Eval == nil || p.Space == nil || len(p.Objectives) != 2 {
			t.Fatalf("%q materialized incompletely: %+v", p.Name, p)
		}
	}
}

func TestShippedSpecsRoundTripByteIdentical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(specsDir(), "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("globbing shipped specs: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		s, err := spec.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		m1, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		s2, err := spec.Parse(m1)
		if err != nil {
			t.Fatalf("%s: re-parsing marshaled spec: %v", path, err)
		}
		m2, err := json.MarshalIndent(s2, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(m1) != string(m2) {
			t.Fatalf("%s: load→marshal→load is not byte-stable", path)
		}
	}
}

func TestConstrainedSyntheticSamplingStaysFeasible(t *testing.T) {
	s, err := spec.Load(filepath.Join(specsDir(), "constrained_synthetic.json"))
	if err != nil {
		t.Fatal(err)
	}
	space, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	if !space.Constrained() {
		t.Fatal("constrained_synthetic lost its constraints")
	}
	feasible := space.FeasibleIndices()
	if frac := float64(len(feasible)) / float64(space.Size()); frac > 0.02 {
		t.Fatalf("feasible fraction %.3f — the spec is meant to be constraint-heavy", frac)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 10; round++ {
		for _, idx := range space.SampleIndices(rng, 100) {
			if !space.Feasible(space.AtIndex(idx)) {
				t.Fatalf("round %d sampled infeasible index %d", round, idx)
			}
		}
	}
}

func TestBuiltinModelsProduceFiniteObjectives(t *testing.T) {
	problems, err := LoadDir(specsDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, p := range problems {
		for _, idx := range p.Space.SampleIndices(rng, 50) {
			objs := p.Eval.Evaluate(p.Space.AtIndex(idx))
			if len(objs) != len(p.Objectives) {
				t.Fatalf("%s: %d objectives, want %d", p.Name, len(objs), len(p.Objectives))
			}
			for j, v := range objs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: objective %d = %v at index %d", p.Name, j, v, idx)
				}
			}
		}
	}
}

func TestBuiltinModelsAreDeterministic(t *testing.T) {
	problems, err := LoadDir(specsDir())
	if err != nil {
		t.Fatal(err)
	}
	p := get(t, problems, "dbms-knobs")
	cfg := p.Space.AtIndex(12345)
	a, b := p.Eval.Evaluate(cfg), p.Eval.Evaluate(cfg)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("model not deterministic: %v vs %v", a, b)
		}
	}
}

func TestFromSpecErrors(t *testing.T) {
	base := func() *spec.Spec {
		return &spec.Spec{
			Version:    spec.Version,
			Name:       "t",
			Parameters: []spec.ParamSpec{{Name: "x", Kind: "bool"}},
			Objectives: []string{"f"},
		}
	}

	s := base()
	s.Evaluator = "builtin:no-such-model"
	if _, err := FromSpec(s); err == nil || !strings.Contains(err.Error(), "no builtin model") {
		t.Fatalf("err = %v", err)
	}

	// A model bound to a space missing its parameters must fail at
	// materialization, not at first evaluation.
	s = base()
	s.Objectives = []string{"f0", "f1"}
	s.Evaluator = "builtin:dbms-model"
	if _, err := FromSpec(s); err == nil || !strings.Contains(err.Error(), "needs parameter") {
		t.Fatalf("err = %v", err)
	}

	// Wrong objective count for a fixed-output model.
	s = base()
	s.Evaluator = "builtin:constrained-model"
	if _, err := FromSpec(s); err == nil || !strings.Contains(err.Error(), "objectives") {
		t.Fatalf("err = %v", err)
	}
}

func TestFromSpecExecAndHTTPBindings(t *testing.T) {
	s := &spec.Spec{
		Version:    spec.Version,
		Name:       "bridge",
		Parameters: []spec.ParamSpec{{Name: "x", Kind: "ordinal", Values: []float64{1, 2}}},
		Objectives: []string{"f"},
		Evaluator:  "exec:/does/not/run --yet",
	}
	p, err := FromSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if p.Eval == nil {
		t.Fatal("exec binding produced no evaluator")
	}

	s.Evaluator = "http://localhost:1/eval"
	if p, err = FromSpec(s); err != nil || p.Eval == nil {
		t.Fatalf("http binding: %v", err)
	}
}

func TestFromSpecDataParses(t *testing.T) {
	doc := `{"version":1,"name":"d","parameters":[{"name":"x","kind":"bool"}],` +
		`"objectives":["f"],"evaluator":"http://h/e"}`
	p, err := FromSpecData([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "d" || p.Space.Dim() != 1 {
		t.Fatalf("materialized %+v", p)
	}
	if _, err := FromSpecData([]byte(`{`)); err == nil {
		t.Fatal("FromSpecData accepted malformed JSON")
	}
}

func TestBuiltinModelsListed(t *testing.T) {
	names := BuiltinModels()
	want := []string{"compiler-model", "constrained-model", "dbms-model"}
	if len(names) != len(want) {
		t.Fatalf("BuiltinModels = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BuiltinModels = %v, want %v", names, want)
		}
	}
}
