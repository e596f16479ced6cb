package core

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/param"
	"repro/internal/pareto"
)

// benchSpace is a 2-D synthetic design space with a known Pareto structure:
// objective 0 favours small a, objective 1 favours small b, with non-linear
// interaction terms making the surface multi-modal (like Fig. 1).
func benchSpace(t testing.TB) *param.Space {
	t.Helper()
	return param.MustSpace(
		param.Grid("a", 0, 4, 40),
		param.Grid("b", 0, 4, 40),
		param.Levels("c", 1, 2, 3), // weakly relevant
	)
}

func benchEval(space *param.Space) Evaluator {
	return EvaluatorFunc(func(cfg param.Config) []float64 {
		a := space.Get(cfg, "a")
		b := space.Get(cfg, "b")
		c := space.Get(cfg, "c")
		runtime := a + 0.5*math.Sin(3*b) + 0.05*c + 1.5
		accuracy := b + 0.5*math.Cos(2*a) + 1.5
		return []float64{runtime, accuracy}
	})
}

func TestRunValidation(t *testing.T) {
	space := benchSpace(t)
	if _, err := Run(nil, benchEval(space), Options{Objectives: 2}); err == nil {
		t.Fatal("expected error for nil space")
	}
	if _, err := Run(space, nil, Options{Objectives: 2}); err == nil {
		t.Fatal("expected error for nil evaluator")
	}
	if _, err := Run(space, benchEval(space), Options{}); err == nil {
		t.Fatal("expected error for missing Objectives")
	}
	for _, st := range []Strategy{{Sampler: "bogus"}, {Selector: "bogus"}} {
		if res, err := Run(space, benchEval(space), Options{Objectives: 2, Strategy: st}); err == nil || res != nil {
			t.Fatalf("strategy %+v: result %v, err %v; want no result and an error", st, res, err)
		}
	}
}

func TestObjectiveCountMismatch(t *testing.T) {
	space := benchSpace(t)
	bad := EvaluatorFunc(func(param.Config) []float64 { return []float64{1} })
	if _, err := Run(space, bad, Options{Objectives: 2, RandomSamples: 10, MaxIterations: 1}); err == nil {
		t.Fatal("expected error when evaluator returns wrong objective count")
	}
}

func TestRunBasicInvariants(t *testing.T) {
	space := benchSpace(t)
	res, err := Run(space, benchEval(space), Options{
		Objectives:    2,
		RandomSamples: 80,
		MaxIterations: 3,
		MaxBatch:      60,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// No duplicate evaluations.
	seen := map[int64]bool{}
	for _, s := range res.Samples {
		if seen[s.Index] {
			t.Fatalf("configuration %d evaluated twice", s.Index)
		}
		seen[s.Index] = true
		if err := space.Validate(s.Config); err != nil {
			t.Fatalf("invalid config in samples: %v", err)
		}
		if len(s.Objs) != 2 {
			t.Fatalf("sample has %d objectives", len(s.Objs))
		}
	}

	// The random phase has exactly RandomSamples non-AL samples.
	randomCount := 0
	for _, s := range res.Samples {
		if !s.ActiveLearning {
			randomCount++
			if s.Iteration != 0 {
				t.Fatal("random sample with non-zero iteration")
			}
		}
	}
	if randomCount != 80 {
		t.Fatalf("random samples = %d, want 80", randomCount)
	}

	// Front points must be measured samples and mutually non-dominated.
	for _, p := range res.Front {
		if _, ok := res.ByIndex(p.ID); !ok {
			t.Fatalf("front point %d was never measured", p.ID)
		}
	}
	for i, p := range res.Front {
		for j, q := range res.Front {
			if i != j && pareto.Dominates(q.Objs, p.Objs) {
				t.Fatal("front contains dominated point")
			}
		}
	}

	if len(res.Iterations) == 0 {
		t.Fatal("no iteration stats recorded")
	}
	if forests := forestsOf(t, res); len(forests) != 2 {
		t.Fatalf("expected 2 final forests, got %d", len(forests))
	}
}

func TestActiveLearningImprovesFront(t *testing.T) {
	// The AL front must dominate-or-match the random-only front in
	// hypervolume — the central claim of Figs. 3 and 4.
	space := benchSpace(t)
	res, err := Run(space, benchEval(space), Options{
		Objectives:    2,
		RandomSamples: 60,
		MaxIterations: 4,
		MaxBatch:      80,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := [2]float64{10, 10}
	hvRandom := pareto.Hypervolume2D(res.RandomFront, ref)
	hvFinal := pareto.Hypervolume2D(res.Front, ref)
	if hvFinal < hvRandom {
		t.Fatalf("active learning lost hypervolume: %v -> %v", hvRandom, hvFinal)
	}
	if len(res.ActiveSamples()) == 0 {
		t.Fatal("active learning evaluated nothing")
	}
	if hvFinal == hvRandom {
		t.Log("warning: AL did not strictly improve hypervolume on this seed")
	}
}

func TestDeterminism(t *testing.T) {
	space := benchSpace(t)
	opts := Options{Objectives: 2, RandomSamples: 40, MaxIterations: 2, Seed: 11}
	r1, err := Run(space, benchEval(space), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 2
	r2, err := Run(space, benchEval(space), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Samples) != len(r2.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(r1.Samples), len(r2.Samples))
	}
	for i := range r1.Samples {
		if r1.Samples[i].Index != r2.Samples[i].Index {
			t.Fatalf("sample order differs at %d", i)
		}
	}
	if len(r1.Front) != len(r2.Front) {
		t.Fatal("fronts differ across worker counts")
	}
}

func TestSmallSpaceExhaustiveConvergence(t *testing.T) {
	// A tiny space: the bootstrap phase evaluates everything, so the first
	// AL iteration must find P − X_out = ∅ and report convergence.
	space := param.MustSpace(param.Levels("x", 1, 2, 3), param.Bool("y"))
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		return []float64{cfg[0], 1 - cfg[1]}
	})
	res, err := Run(space, eval, Options{
		Objectives:    2,
		RandomSamples: 100, // > space size
		MaxIterations: 3,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != int(space.Size()) {
		t.Fatalf("evaluated %d, want %d", len(res.Samples), space.Size())
	}
	if !res.Converged {
		t.Fatal("expected convergence on exhausted space")
	}
}

func TestMaxBatchRespected(t *testing.T) {
	space := benchSpace(t)
	res, err := Run(space, benchEval(space), Options{
		Objectives:    2,
		RandomSamples: 30,
		MaxIterations: 3,
		MaxBatch:      10,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Iterations {
		if it.NewSamples > 10 {
			t.Fatalf("iteration %d evaluated %d > MaxBatch", it.Iteration, it.NewSamples)
		}
	}
}

func TestPoolCapPath(t *testing.T) {
	// Force the subsampled-pool path with a small cap.
	space := benchSpace(t)
	res, err := Run(space, benchEval(space), Options{
		Objectives:    2,
		RandomSamples: 40,
		MaxIterations: 2,
		PoolCap:       100, // far below the 4800-point space
		Seed:          9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ActiveSamples()) == 0 {
		t.Fatal("subsampled pool produced no AL samples")
	}
}

func TestParallelEvaluatorUsage(t *testing.T) {
	space := benchSpace(t)
	var calls atomic.Int64
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		calls.Add(1)
		return benchEval(space).Evaluate(cfg)
	})
	res, err := Run(space, eval, Options{
		Objectives: 2, RandomSamples: 50, MaxIterations: 2, Seed: 13, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != len(res.Samples) {
		t.Fatalf("evaluator called %d times for %d samples", calls.Load(), len(res.Samples))
	}
}

func TestThreeObjectives(t *testing.T) {
	// The optimizer is objective-count agnostic (runtime, accuracy, power).
	space := benchSpace(t)
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		a, b, c := cfg[0], cfg[1], cfg[2]
		return []float64{a + 1, b + 1, c + a*b*0.1}
	})
	res, err := Run(space, eval, Options{
		Objectives: 3, RandomSamples: 60, MaxIterations: 2, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty 3-objective front")
	}
	for _, p := range res.Front {
		if len(p.Objs) != 3 {
			t.Fatalf("front point has %d objectives", len(p.Objs))
		}
	}
}

func TestSingleObjective(t *testing.T) {
	space := param.MustSpace(param.Grid("x", -2, 2, 41))
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		x := cfg[0]
		return []float64{x * x} // minimum at x = 0
	})
	res, err := Run(space, eval, Options{
		Objectives: 1, RandomSamples: 10, MaxIterations: 4, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) != 1 {
		t.Fatalf("single-objective front has %d points", len(res.Front))
	}
	best := res.Front[0].Objs[0]
	if best > 0.05 {
		t.Fatalf("optimizer found %v, want ≈0", best)
	}
}

func TestThin(t *testing.T) {
	in := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	out := thin(in, 4)
	if len(out) != 4 {
		t.Fatalf("thin -> %v", out)
	}
	if out[0] != 0 {
		t.Fatal("thin should keep the first point")
	}
	if got := thin(in, 20); len(got) != 10 {
		t.Fatal("thin should be identity when n >= len")
	}
}

func TestFrontSamplesSorted(t *testing.T) {
	space := benchSpace(t)
	res, err := Run(space, benchEval(space), Options{
		Objectives: 2, RandomSamples: 50, MaxIterations: 2, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := FrontSamples(res)
	if len(fs) != len(res.Front) {
		t.Fatalf("FrontSamples lost points: %d vs %d", len(fs), len(res.Front))
	}
	for i := 1; i < len(fs); i++ {
		if fs[i].Objs[0] < fs[i-1].Objs[0] {
			t.Fatal("FrontSamples not sorted by first objective")
		}
	}
}

func TestIterationStatsConsistent(t *testing.T) {
	space := benchSpace(t)
	res, err := Run(space, benchEval(space), Options{
		Objectives: 2, RandomSamples: 40, MaxIterations: 3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 40
	for _, it := range res.Iterations {
		total += it.NewSamples
		if it.TotalSamples != total {
			t.Fatalf("iteration %d: TotalSamples %d, want %d", it.Iteration, it.TotalSamples, total)
		}
		if len(it.OOBError) != 2 {
			t.Fatalf("OOB errors per objective = %v", it.OOBError)
		}
		if len(it.OOBSamples) != 2 {
			t.Fatalf("OOB sample counts per objective = %v", it.OOBSamples)
		}
		for k := range it.OOBError {
			// The undefined marker is consistent: NaN exactly when no
			// sample was out of bag.
			if math.IsNaN(it.OOBError[k]) != (it.OOBSamples[k] == 0) {
				t.Fatalf("iteration %d objective %d: OOB error %v with %d OOB samples",
					it.Iteration, k, it.OOBError[k], it.OOBSamples[k])
			}
		}
	}
	if total != len(res.Samples) {
		t.Fatalf("stats total %d != samples %d", total, len(res.Samples))
	}
}

func BenchmarkRunSmallDSE(b *testing.B) {
	space := benchSpace(b)
	eval := benchEval(space)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(space, eval, Options{
			Objectives: 2, RandomSamples: 60, MaxIterations: 2, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
