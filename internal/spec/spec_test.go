package spec

import (
	"strings"
	"testing"

	"repro/internal/param"
)

const goodSpec = `{
  "version": 1,
  "name": "toy",
  "description": "two grids and a switch",
  "parameters": [
    {"name": "x", "kind": "grid", "low": 0, "high": 4, "points": 5},
    {"name": "y", "kind": "log-grid", "low": 1, "high": 16, "points": 5},
    {"name": "flag", "kind": "bool"},
    {"name": "lvl", "kind": "ordinal", "values": [1, 2, 3]}
  ],
  "constraints": [
    {"then": "x <= y"},
    {"if": "flag == 1", "then": "lvl != 2"}
  ],
  "objectives": ["f0", "f1"],
  "evaluator": "builtin:whatever"
}`

func TestParseGoodSpec(t *testing.T) {
	s, err := Parse([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "toy" || len(s.Parameters) != 4 || len(s.Objectives) != 2 {
		t.Fatalf("parsed %+v", s)
	}
	space, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	if space.Dim() != 4 || space.Size() != 5*5*2*3 {
		t.Fatalf("space dim=%d size=%d", space.Dim(), space.Size())
	}
	if !space.Constrained() {
		t.Fatal("constraints did not reach the space")
	}
	// x=4 y=1 violates x <= y.
	if space.Feasible(param.Config{4, 1, 0, 1}) {
		t.Fatal("x<=y not enforced")
	}
	// flag=1 lvl=2 violates the conditional; flag=0 lvl=2 is fine.
	if space.Feasible(param.Config{0, 16, 1, 2}) {
		t.Fatal("conditional constraint not enforced")
	}
	if !space.Feasible(param.Config{0, 16, 0, 2}) {
		t.Fatal("conditional constraint fired with a false guard")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"unknown field", `{"version":1,"name":"a","paramters":[]}`, "unknown field"},
		{"bad version", `{"version":2,"name":"a","parameters":[{"name":"x","kind":"bool"}],"objectives":["f"],"evaluator":"builtin:m"}`, "version 2"},
		{"no parameters", `{"version":1,"name":"a","parameters":[],"objectives":["f"],"evaluator":"builtin:m"}`, "no parameters"},
		{"no objectives", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"bool"}],"objectives":[],"evaluator":"builtin:m"}`, "no objectives"},
		{"empty name", `{"version":1,"name":"","parameters":[{"name":"x","kind":"bool"}],"objectives":["f"],"evaluator":"builtin:m"}`, "empty problem name"},
		{"bad kind", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"float"}],"objectives":["f"],"evaluator":"builtin:m"}`, "unknown kind"},
		{"bool with values", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"bool","values":[1]}],"objectives":["f"],"evaluator":"builtin:m"}`, "takes no values"},
		{"ordinal without values", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"ordinal"}],"objectives":["f"],"evaluator":"builtin:m"}`, "at least one value"},
		{"grid without points", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"grid","low":0,"high":1}],"objectives":["f"],"evaluator":"builtin:m"}`, "points"},
		{"grid too fine", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"grid","low":0,"high":1,"points":2000000000}],"objectives":["f"],"evaluator":"builtin:m"}`, "points"},
		{"grid inverted range", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"grid","low":2,"high":1,"points":3}],"objectives":["f"],"evaluator":"builtin:m"}`, "low < high"},
		{"log-grid nonpositive low", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"log-grid","low":0,"high":1,"points":3}],"objectives":["f"],"evaluator":"builtin:m"}`, "positive low"},
		{"no evaluator", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"bool"}],"objectives":["f"],"evaluator":""}`, "no evaluator"},
		{"bad binding", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"bool"}],"objectives":["f"],"evaluator":"shell:rm"}`, "not builtin:"},
		{"unknown constraint param", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"bool"}],"constraints":[{"then":"y == 1"}],"objectives":["f"],"evaluator":"builtin:m"}`, "unknown parameter"},
		{"constraint missing then", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"bool"}],"constraints":[{"if":"x == 1"}],"objectives":["f"],"evaluator":"builtin:m"}`, `empty "then"`},
		{"constraint no operator", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"bool"}],"constraints":[{"then":"x"}],"objectives":["f"],"evaluator":"builtin:m"}`, "no operator"},
		{"constraint double operator", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"bool"}],"constraints":[{"then":"x < 1 < 2"}],"objectives":["f"],"evaluator":"builtin:m"}`, "operator"},
		{"trailing content", goodSpec + `{"more": 1}`, "trailing content"},
		{"priors wrong count", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"ordinal","values":[1,2,3],"priors":[1,2]}],"objectives":["f"],"evaluator":"builtin:m"}`, "priors"},
		{"priors negative", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"bool","priors":[-1,2]}],"objectives":["f"],"evaluator":"builtin:m"}`, "prior weight"},
		{"priors all zero", `{"version":1,"name":"a","parameters":[{"name":"x","kind":"grid","low":0,"high":1,"points":2,"priors":[0,0]}],"objectives":["f"],"evaluator":"builtin:m"}`, "all-zero"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestConstraintOperators(t *testing.T) {
	space := param.MustSpace(param.Grid("a", 0, 4, 5), param.Grid("b", 0, 4, 5))
	cases := []struct {
		expr string
		cfg  param.Config
		want bool
	}{
		{"a < b", param.Config{1, 2}, true},
		{"a < b", param.Config{2, 2}, false},
		{"a <= b", param.Config{2, 2}, true},
		{"a > 1", param.Config{2, 0}, true},
		{"a >= 3", param.Config{2, 0}, false},
		{"a == 2", param.Config{2, 0}, true},
		{"a != 2", param.Config{2, 0}, false},
		{"3 <= b", param.Config{0, 4}, true},
		{"1 == 1", param.Config{0, 0}, true},
	}
	for _, tc := range cases {
		pred, err := CompileConstraint(Constraint{Then: tc.expr}, space)
		if err != nil {
			t.Fatalf("%q: %v", tc.expr, err)
		}
		if got := pred(tc.cfg); got != tc.want {
			t.Fatalf("%q on %v = %v, want %v", tc.expr, tc.cfg, got, tc.want)
		}
	}
}

func TestParseBinding(t *testing.T) {
	cases := []struct {
		in         string
		kind, tgt  string
		wantErrSub string
	}{
		{in: "builtin:model-x", kind: "builtin", tgt: "model-x"},
		{in: "exec:./objective --fast", kind: "exec", tgt: "./objective --fast"},
		{in: "http://host:9/eval", kind: "http", tgt: "http://host:9/eval"},
		{in: "https://host/eval", kind: "http", tgt: "https://host/eval"},
		{in: "builtin:", wantErrSub: "no evaluator name"},
		{in: "exec: ", wantErrSub: "no command"},
		{in: "", wantErrSub: "no evaluator binding"},
		{in: "ftp://host", wantErrSub: "not builtin:"},
	}
	for _, tc := range cases {
		b, err := ParseBinding(tc.in)
		if tc.wantErrSub != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErrSub) {
				t.Fatalf("ParseBinding(%q) err = %v, want %q", tc.in, err, tc.wantErrSub)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseBinding(%q): %v", tc.in, err)
		}
		if b.Kind != tc.kind || b.Target != tc.tgt {
			t.Fatalf("ParseBinding(%q) = %+v", tc.in, b)
		}
	}
}

func TestMarshalRoundTripStable(t *testing.T) {
	s, err := Parse([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(m1)
	if err != nil {
		t.Fatalf("re-parsing own output: %v", err)
	}
	m2, err := s2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(m1) != string(m2) {
		t.Fatalf("marshal not stable:\n%s\nvs\n%s", m1, m2)
	}
}

// TestPriorsReachSpaceAndRoundTrip: declared priors must survive the
// strict parse, land on the built space's parameters for weighted sampling,
// and round-trip byte-stably through Marshal.
func TestPriorsReachSpaceAndRoundTrip(t *testing.T) {
	doc := `{
  "version": 1,
  "name": "with-priors",
  "parameters": [
    {"name": "x", "kind": "grid", "low": 0, "high": 4, "points": 5, "priors": [5, 2, 1, 1, 1]},
    {"name": "flag", "kind": "bool", "priors": [1, 3]},
    {"name": "lvl", "kind": "ordinal", "values": [1, 2, 3]}
  ],
  "objectives": ["f0"],
  "evaluator": "builtin:m"
}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	space, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	if !space.HasPriors() {
		t.Fatal("priors did not reach the space")
	}
	params := space.Params()
	if got := params[0].Priors; len(got) != 5 || got[0] != 5 {
		t.Fatalf("x priors = %v", got)
	}
	if got := params[1].Priors; len(got) != 2 || got[1] != 3 {
		t.Fatalf("flag priors = %v", got)
	}
	if params[2].Priors != nil {
		t.Fatalf("lvl grew priors %v out of nowhere", params[2].Priors)
	}
	m1, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(m1)
	if err != nil {
		t.Fatalf("re-parsing own output: %v", err)
	}
	m2, err := s2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(m1) != string(m2) {
		t.Fatalf("priors marshal not stable:\n%s\nvs\n%s", m1, m2)
	}
}

func TestLoadDirRejectsEmptyDir(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("LoadDir accepted a directory with no specs")
	}
}
