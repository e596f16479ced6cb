package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/param"
	"repro/internal/pareto"
)

// TestDefaultStrategyByteIdentical: a run naming the default strategy
// explicitly is byte-identical to a run with the zero Strategy. The prior
// sampler on a space without declared priors degrades to the uniform draw,
// so it is byte-identical too.
func TestDefaultStrategyByteIdentical(t *testing.T) {
	space := benchSpace(t)
	opts := Options{
		Objectives:    2,
		RandomSamples: 40,
		MaxIterations: 3,
		MaxBatch:      30,
		Seed:          23,
	}
	base, err := Run(space, benchEval(space), opts)
	if err != nil {
		t.Fatal(err)
	}
	explicit := opts
	explicit.Strategy = Strategy{Sampler: "uniform", Selector: "even-thin"}
	named, err := Run(space, benchEval(space), explicit)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprintRun(base) != fingerprintRun(named) {
		t.Fatal("the explicitly named default strategy diverged from the zero Strategy")
	}

	priorless := opts
	priorless.Strategy = Strategy{Sampler: "prior"}
	viaPriors, err := Run(space, benchEval(space), priorless)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprintRun(base) != fingerprintRun(viaPriors) {
		t.Fatal("the prior sampler on a priorless space diverged from the uniform draw")
	}
}

// TestPriorSamplerConcentratesBootstrap checks the prior sampler end to
// end: with priors pinning parameter "c" to level 1, every bootstrap draw
// lands there, and the run still completes normally.
func TestPriorSamplerConcentratesBootstrap(t *testing.T) {
	s := param.MustSpace(
		param.Grid("a", 0, 4, 40),
		param.Grid("b", 0, 4, 40),
		param.Levels("c", 1, 2, 3),
	)
	params := s.Params()
	params[2].Priors = []float64{1, 0, 0}
	space, err := param.NewSpace(params...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(space, benchEval(space), Options{
		Objectives:    2,
		RandomSamples: 60,
		MaxIterations: 1,
		MaxBatch:      20,
		Seed:          7,
		Strategy:      Strategy{Sampler: "prior"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range res.Samples {
		if !smp.ActiveLearning && smp.Config[2] != 1 {
			t.Fatalf("bootstrap drew c=%v despite a zero prior", smp.Config[2])
		}
	}
}

// nanBelt wraps an evaluator with a hidden validity rule the space's
// predicate does not know: configurations with a+b in (3, 4] fail at
// measurement time and come back as NaN.
func nanBelt(inner Evaluator) Evaluator {
	return EvaluatorFunc(func(cfg param.Config) []float64 {
		if s := cfg[0] + cfg[1]; s > 3 && s <= 4 {
			return []float64{math.NaN(), math.NaN()}
		}
		return inner.Evaluate(cfg)
	})
}

// TestFeasibilityStrategySegregatesInvalid runs the feasibility strategy
// against an evaluator with a hidden infeasible belt: NaN measurements must
// land in Result.Invalid (never in Samples or the fronts), and the run must
// still converge on the valid region.
func TestFeasibilityStrategySegregatesInvalid(t *testing.T) {
	space := benchSpace(t)
	res, err := Run(space, nanBelt(benchEval(space)), Options{
		Objectives:    2,
		RandomSamples: 60,
		MaxIterations: 3,
		MaxBatch:      40,
		Seed:          11,
		Strategy:      Strategy{Feasibility: true},
		probes:        64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Invalid) == 0 {
		t.Fatal("the NaN belt produced no invalid samples — the test lost its teeth")
	}
	for _, smp := range res.Samples {
		if slices.ContainsFunc(smp.Objs, math.IsNaN) {
			t.Fatalf("NaN objectives leaked into Samples at index %d", smp.Index)
		}
	}
	for _, smp := range res.Invalid {
		if !slices.ContainsFunc(smp.Objs, math.IsNaN) {
			t.Fatalf("valid measurement misfiled into Invalid at index %d", smp.Index)
		}
	}
	if len(res.Front) == 0 {
		t.Fatal("no front over the valid region")
	}
	for _, p := range res.Front {
		if slices.ContainsFunc(p.Objs, math.IsNaN) {
			t.Fatalf("front carries a NaN point (index %d)", p.ID)
		}
	}
	// An invalid index must never be measured twice.
	seen := make(map[int64]int)
	for _, smp := range res.Invalid {
		seen[smp.Index]++
		if seen[smp.Index] > 1 {
			t.Fatalf("index %d measured invalid %d times", smp.Index, seen[smp.Index])
		}
		if _, ok := res.ByIndex(smp.Index); ok {
			t.Fatalf("index %d is in both Samples and Invalid", smp.Index)
		}
	}
}

// hostileBelt is nanBelt for every way a measurement can come back broken:
// on the hidden belt the named objectives carry bad instead of a number.
func hostileBelt(inner Evaluator, bad float64, objectives ...int) Evaluator {
	return EvaluatorFunc(func(cfg param.Config) []float64 {
		objs := inner.Evaluate(cfg)
		if s := cfg[0] + cfg[1]; s > 3 && s <= 4 {
			for _, k := range objectives {
				objs[k] = bad
			}
		}
		return objs
	})
}

// TestNonFiniteObjectivesAreInvalidUnderEveryStrategy pins the ingest
// contract: whatever the strategy, a measurement with a NaN or ±Inf objective
// is an invalid configuration — filed in Result.Invalid, measured once, and
// never trained on, counted into the hypervolume bounds or put on a front.
func TestNonFiniteObjectivesAreInvalidUnderEveryStrategy(t *testing.T) {
	space := benchSpace(t)
	nonFinite := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	for _, tc := range []struct {
		name string
		eval Evaluator
	}{
		{"NaN", nanBelt(benchEval(space))},
		{"NaN-in-one-objective", hostileBelt(benchEval(space), math.NaN(), 1)},
		{"+Inf", hostileBelt(benchEval(space), math.Inf(1), 0)},
		{"-Inf", hostileBelt(benchEval(space), math.Inf(-1), 0, 1)}, // would dominate everything
	} {
		for _, feasibility := range []bool{false, true} {
			for _, poolCap := range []int{0, 200} { // all cells and drawn cells
				t.Run(fmt.Sprintf("%s/feasibility=%v/poolcap=%d", tc.name, feasibility, poolCap), func(t *testing.T) {
					res, err := Run(space, tc.eval, Options{
						Objectives:    2,
						RandomSamples: 60,
						MaxIterations: 3,
						MaxBatch:      20,
						PoolCap:       poolCap,
						Seed:          11,
						Strategy:      Strategy{Feasibility: feasibility},
						probes:        64,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Invalid) == 0 {
						t.Fatal("the belt produced no invalid samples — the test lost its teeth")
					}
					seen := make(map[int64]bool)
					for _, smp := range res.Invalid {
						if !slices.ContainsFunc(smp.Objs, nonFinite) {
							t.Fatalf("valid measurement misfiled into Invalid at index %d", smp.Index)
						}
						if _, ok := res.ByIndex(smp.Index); ok || seen[smp.Index] {
							t.Fatalf("invalid index %d was measured again", smp.Index)
						}
						seen[smp.Index] = true
					}
					for _, smp := range res.Samples {
						if slices.ContainsFunc(smp.Objs, nonFinite) {
							t.Fatalf("non-finite objectives %v leaked into Samples at index %d", smp.Objs, smp.Index)
						}
					}
					if len(res.Front) == 0 || len(res.RandomFront) == 0 {
						t.Fatal("no front over the valid region")
					}
					for _, p := range append(append([]pareto.Point(nil), res.Front...), res.RandomFront...) {
						if slices.ContainsFunc(p.Objs, nonFinite) {
							t.Fatalf("front carries the non-finite point %v (index %d)", p.Objs, p.ID)
						}
					}
					for _, it := range res.Iterations {
						if nonFinite(it.Hypervolume) {
							t.Fatalf("iteration %d reports hypervolume %v", it.Iteration, it.Hypervolume)
						}
					}
					// Forests trained on a non-finite target predict one.
					row := make([]float64, space.Dim())
					for idx := int64(0); idx < space.Size(); idx++ {
						space.Encode(space.AtIndex(idx), row)
						for k, f := range forestsOf(t, res) {
							if v := f.Predict(row); nonFinite(v) {
								t.Fatalf("objective %d forest predicts %v at index %d", k, v, idx)
							}
						}
					}
				})
			}
		}
	}
}

// TestAllFiniteRunUnchangedByIngestContract holds the other side of the
// contract: a run whose evaluator never misbehaves files nothing as invalid
// and is byte-identical to the engine before the contract existed (digests
// of the same seeded runs taken at the commit before it; float formatting
// and math.Sin are only comparable on the architecture they were taken on).
func TestAllFiniteRunUnchangedByIngestContract(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests were recorded on amd64")
	}
	space := benchSpace(t)
	for poolCap, want := range map[int]string{
		0:   "2383aa7002065b72d6f34a2eb77ea7e90b49897bdf4dd17f786c2648059d3f0c",
		200: "ede8a947d6dd4547e18d28136e6914f77a89399ed4db9b1546b79b0c42b2babd",
	} {
		res, err := Run(space, benchEval(space), Options{
			Objectives:    2,
			RandomSamples: 60,
			MaxIterations: 3,
			MaxBatch:      20,
			PoolCap:       poolCap,
			Seed:          11,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Invalid) != 0 {
			t.Fatalf("PoolCap %d: %d finite samples filed as invalid", poolCap, len(res.Invalid))
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fingerprintRun(res)))); got != want {
			t.Fatalf("PoolCap %d: seeded all-finite run changed: digest %s, want %s", poolCap, got, want)
		}
	}
}

// TestSelectorsNeverEmitInfeasible is the constrained-run regression test of
// the strategies: on a space with a declared predicate, no selector — old or
// new, with or without the feasibility classifier, on enumerable and
// subsampled pools — may ever hand an infeasible configuration to the
// evaluator.
func TestSelectorsNeverEmitInfeasible(t *testing.T) {
	cases := []struct {
		name     string
		strategy Strategy
	}{
		{"even-thin", Strategy{Selector: "even-thin"}},
		{"acquisition", Strategy{Selector: "acquisition"}},
		{"even-thin-feasibility", Strategy{Selector: "even-thin", Feasibility: true}},
		{"acquisition-feasibility", Strategy{Selector: "acquisition", Feasibility: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, poolCap := range []int{0, 200} {
				space := constrainedSpace(t)
				checked := 0
				guard := EvaluatorFunc(func(cfg param.Config) []float64 {
					if !space.Feasible(cfg) {
						t.Errorf("poolCap=%d: evaluator handed infeasible config %v", poolCap, cfg)
					}
					checked++
					return benchEval(space).Evaluate(cfg)
				})
				res, err := Run(space, guard, Options{
					Objectives:    2,
					RandomSamples: 40,
					MaxIterations: 3,
					MaxBatch:      30,
					PoolCap:       poolCap,
					Seed:          9,
					Strategy:      tc.strategy,
					probes:        64,
					Workers:       1, // serialize so `checked` needs no lock
				})
				if err != nil {
					t.Fatal(err)
				}
				if checked == 0 || len(res.Samples) == 0 {
					t.Fatalf("poolCap=%d: nothing evaluated", poolCap)
				}
			}
		})
	}
}

func selPoint(id int64, objs ...float64) pareto.Point { return pareto.Point{ID: id, Objs: objs} }

// frontCands is a strictly front-ordered candidate set (ascending obj0,
// descending obj1) for selector unit tests.
func frontCands() []pareto.Point {
	return []pareto.Point{
		selPoint(10, 0, 10),
		selPoint(11, 1, 6),
		selPoint(12, 2, 5.5), // tiny exclusive area: crowded between 11 and 13
		selPoint(13, 3, 5),
		selPoint(14, 9, 0),
	}
}

func TestAcquisitionSelectorUnderBudgetTakesAll(t *testing.T) {
	got := acquire(frontCands(), nil, 5)
	want := []int64{10, 11, 12, 13, 14}
	if !slices.Equal(got, want) {
		t.Fatalf("Select = %v, want all of %v", got, want)
	}
}

func TestAcquisitionSelectorRanksByContribution(t *testing.T) {
	got := acquire(frontCands(), nil, 3)
	if len(got) != 3 {
		t.Fatalf("Select returned %d ids, want 3", len(got))
	}
	// The crowded point 12 has the smallest exclusive contribution; the
	// extremes (10, 14) dominate the scores. Output stays front-ordered.
	if slices.Contains(got, 12) {
		t.Fatalf("Select = %v kept the lowest-contribution candidate", got)
	}
	if !slices.IsSorted(got) {
		t.Fatalf("Select = %v is not in front order", got)
	}
	// Determinism: same input, same output.
	again := acquire(frontCands(), nil, 3)
	if !slices.Equal(got, again) {
		t.Fatalf("Select is not deterministic: %v vs %v", got, again)
	}
}

func TestAcquisitionSelectorFeasibilityDownweights(t *testing.T) {
	// Candidate 14 owns the largest corner area but is predicted almost
	// surely infeasible — the feasibility weight must push it out.
	feas := []float64{1, 1, 0.9, 1, 0}
	got := acquire(frontCands(), feas, 3)
	if slices.Contains(got, 14) {
		t.Fatalf("Select = %v kept a zero-feasibility candidate over viable ones", got)
	}
}

func TestAcquisitionSelectorCrowdingForThreeObjectives(t *testing.T) {
	cands := []pareto.Point{
		selPoint(1, 0, 5, 5),
		selPoint(2, 5, 0, 5),
		selPoint(3, 5, 5, 0),
		selPoint(4, 2.5, 2.5, 4.9), // interior: finite crowding distance
	}
	got := acquire(cands, nil, 3)
	want := []int64{1, 2, 3} // the boundary points score +Inf per objective
	if !slices.Equal(got, want) {
		t.Fatalf("Select = %v, want the boundary candidates %v", got, want)
	}
}

func TestEvenThinSelectorMatchesThin(t *testing.T) {
	cands := frontCands()
	got := Strategy{}.selectBatch(cands, nil, 2)
	want := thin(pareto.IDs(cands), 2)
	if !slices.Equal(got, want) {
		t.Fatalf("Select = %v, want thin's %v", got, want)
	}
	all := Strategy{}.selectBatch(cands, nil, 10)
	if !slices.Equal(all, pareto.IDs(cands)) {
		t.Fatalf("under budget Select = %v, want every candidate", all)
	}
}

// TestThinEdgeCases covers the guards and the stride rounding: n ≤ 0, n ≥
// len, and large len/n ratios where naive rounding could emit duplicates or
// run past the slice.
func TestThinEdgeCases(t *testing.T) {
	idxs := make([]int64, 1000)
	for i := range idxs {
		idxs[i] = int64(i)
	}
	if got := thin(idxs, 0); got != nil {
		t.Fatalf("thin(_, 0) = %v, want nil", got)
	}
	if got := thin(idxs, -5); got != nil {
		t.Fatalf("thin(_, -5) = %v, want nil", got)
	}
	if got := thin(idxs, len(idxs)); len(got) != len(idxs) {
		t.Fatalf("thin(_, len) dropped entries: %d", len(got))
	}
	if got := thin(idxs, len(idxs)+1); len(got) != len(idxs) {
		t.Fatalf("thin(_, len+1) changed the slice: %d", len(got))
	}
	for _, n := range []int{1, 2, 3, 7, 333, 999} {
		got := thin(idxs, n)
		if len(got) != n {
			t.Fatalf("thin(1000, %d) returned %d entries", n, len(got))
		}
		if got[0] != idxs[0] {
			t.Fatalf("thin(1000, %d) dropped the front's first point", n)
		}
		if !slices.IsSorted(got) {
			t.Fatalf("thin(1000, %d) broke front order", n)
		}
		seen := make(map[int64]bool, n)
		for _, id := range got {
			if seen[id] {
				t.Fatalf("thin(1000, %d) emitted duplicate %d", n, id)
			}
			seen[id] = true
		}
	}
	// Step rounding at an awkward ratio: 10 from 13 must stay in bounds and
	// unique (step 1.3 exercises the float stride).
	short := idxs[:13]
	got := thin(short, 10)
	if len(got) != 10 {
		t.Fatalf("thin(13, 10) returned %d entries", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("thin(13, 10) not strictly increasing: %v", got)
		}
	}
}

// TestHypervolumeStatPopulated checks the per-iteration hypervolume signal:
// defined from the bootstrap on (2-objective runs always measure a spread),
// and carried on every AL round event.
func TestHypervolumeStatPopulated(t *testing.T) {
	space := benchSpace(t)
	var events []IterationStats
	_, err := Run(space, benchEval(space), Options{
		Objectives:    2,
		RandomSamples: 40,
		MaxIterations: 2,
		MaxBatch:      30,
		Seed:          13,
		OnIteration:   func(s IterationStats) { events = append(events, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("got %d events", len(events))
	}
	for i, ev := range events {
		if math.IsNaN(ev.Hypervolume) || ev.Hypervolume <= 0 {
			t.Fatalf("event %d hypervolume = %v, want > 0", i, ev.Hypervolume)
		}
	}
}

func TestStrategyResolution(t *testing.T) {
	for _, tc := range []struct {
		st   Strategy
		want StrategyInfo
	}{
		{Strategy{}, StrategyInfo{"uniform", "forest", "even-thin"}},
		{Strategy{Sampler: "uniform", Selector: "even-thin"}, StrategyInfo{"uniform", "forest", "even-thin"}},
		{Strategy{Sampler: "prior"}, StrategyInfo{"prior", "forest", "even-thin"}},
		{Strategy{Feasibility: true}, StrategyInfo{"uniform", "feasibility", "even-thin"}},
		{Strategy{Sampler: "prior", Feasibility: true, Selector: "acquisition"}, StrategyInfo{"prior", "feasibility", "acquisition"}},
	} {
		if err := tc.st.Validate(); err != nil {
			t.Fatalf("%+v: %v", tc.st, err)
		}
		if got := tc.st.Info(); got != tc.want {
			t.Fatalf("%+v resolves to %+v, want %+v", tc.st, got, tc.want)
		}
	}
	// An invalid strategy is refused, and resolves to the default names.
	for _, st := range []Strategy{{Sampler: "bogus"}, {Sampler: "prior", Feasibility: true, Selector: "bogus"}} {
		if err := st.Validate(); err == nil {
			t.Fatalf("%+v validated", st)
		}
		if got, want := st.Info(), (Strategy{}).Info(); got != want {
			t.Fatalf("%+v resolves to %+v, want the defaults %+v", st, got, want)
		}
	}
}

// TestRunFingerprintEncodesStrategy: fingerprints gate journal resume, and
// strategies are never replay-compatible — so every strategy's names appear
// in the fingerprint literally, exactly as journals already on disk record
// them, and the explicitly named default matches the zero Strategy.
func TestRunFingerprintEncodesStrategy(t *testing.T) {
	space := benchSpace(t)
	seen := make(map[string]bool)
	for _, sampler := range []string{"uniform", "prior"} {
		for _, feasibility := range []bool{false, true} {
			for _, selector := range []string{"even-thin", "acquisition"} {
				st := Strategy{Sampler: sampler, Feasibility: feasibility, Selector: selector}
				modeler := "forest"
				if feasibility {
					modeler = "feasibility"
				}
				fp := RunFingerprint(space, Options{Objectives: 2, Seed: 1, Strategy: st})
				want := fmt.Sprintf(";sampler=%s;modeler=%s;selector=%s;", sampler, modeler, selector)
				if !strings.Contains(fp, want) {
					t.Fatalf("%+v: fingerprint %s lacks %s", st, fp, want)
				}
				seen[fp] = true
			}
		}
	}
	if len(seen) != 8 {
		t.Fatalf("8 strategies gave %d distinct fingerprints", len(seen))
	}
	if !seen[RunFingerprint(space, Options{Objectives: 2, Seed: 1})] {
		t.Fatal("the zero Strategy's fingerprint matches no named strategy's")
	}
}
