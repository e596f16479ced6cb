package core

import (
	"testing"

	"repro/internal/param"
)

// constrainedSpace is benchSpace with a feasibility predicate: roughly a
// quarter of the 4800 configurations survive a + b <= 4 with c != 2.
func constrainedSpace(t testing.TB) *param.Space {
	t.Helper()
	s := param.MustSpace(
		param.Grid("a", 0, 4, 40),
		param.Grid("b", 0, 4, 40),
		param.Levels("c", 1, 2, 3),
	)
	s.SetConstraint(func(cfg param.Config) bool {
		return cfg[0]+cfg[1] <= 4 && cfg[2] != 2
	})
	return s
}

func TestConstrainedRunNeverEvaluatesInfeasible(t *testing.T) {
	for _, poolCap := range []int{0, 200} { // enumerable and subsampled pools
		space := constrainedSpace(t)
		res, err := Run(space, benchEval(space), Options{
			Objectives:    2,
			RandomSamples: 40,
			MaxIterations: 3,
			MaxBatch:      30,
			PoolCap:       poolCap,
			Seed:          9,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Samples {
			if !space.Feasible(s.Config) {
				t.Fatalf("poolCap=%d evaluated infeasible config %v (index %d)",
					poolCap, s.Config, s.Index)
			}
		}
		for _, p := range res.Front {
			if !space.Feasible(space.AtIndex(p.ID)) {
				t.Fatalf("poolCap=%d front nominates infeasible index %d", poolCap, p.ID)
			}
		}
	}
}

func TestConstrainedRunDeterministicAcrossWorkers(t *testing.T) {
	space := constrainedSpace(t)
	opts := Options{Objectives: 2, RandomSamples: 30, MaxIterations: 2, Seed: 17}
	r1, err := Run(space, benchEval(space), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 3
	r2, err := Run(space, benchEval(space), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprintRun(r1) != fingerprintRun(r2) {
		t.Fatal("constrained run depends on worker count")
	}
}
