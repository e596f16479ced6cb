package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/param"
)

// awkwardSpace is enumerable and shaped to trip a grid sweep: a Boolean
// leading parameter (two slabs for any number of workers), a log-scaled
// grid, levels declared out of order, and a one-level parameter.
func awkwardSpace() *param.Space {
	return param.MustSpace(
		param.Bool("fast"),
		param.Grid("a", 0, 4, 12),
		param.LogGrid("eps", 1e-5, 1e-1, 7),
		param.Levels("pyramid", 8, 1, 4, 2),
		param.Levels("fixed", 3),
	)
}

func awkwardEval(cfg param.Config) []float64 {
	fast, a, eps, pyr := cfg[0], cfg[1], cfg[2], cfg[3]
	return []float64{
		a + 0.5*math.Sin(3*pyr) - 0.7*fast - 0.2*math.Log10(eps),
		4 - a + 0.3*pyr + 0.9*fast + 0.1*math.Log10(eps)*math.Log10(eps),
	}
}

func TestGridPoolMatchesLegacyPath(t *testing.T) {
	// Whole seeded runs over enumerable spaces — predicted through the grid
	// kernel — must equal the legacy reference (row-by-row Forest.Predict
	// over a re-encoded pool) byte for byte, whatever the worker count.
	constrained := awkwardSpace()
	constrained.SetConstraint(func(cfg param.Config) bool {
		return !(cfg[0] == 1 && cfg[1] > 3) && cfg[3] != 4
	})
	for _, tc := range []struct {
		name  string
		space *param.Space
	}{
		{"boolean-first", awkwardSpace()},
		{"boolean-first-constrained", constrained},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{
				Objectives:    2,
				RandomSamples: 40,
				MaxIterations: 3,
				MaxBatch:      20,
				Seed:          11,
			}
			legacy := opts
			legacy.legacyState = true
			reference, err := Run(tc.space, EvaluatorFunc(awkwardEval), legacy)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprintRun(reference)
			if len(reference.Samples) <= opts.RandomSamples {
				t.Fatal("reference run never left the bootstrap; the pool was not exercised")
			}
			for _, workers := range []int{1, 2, 3, 4} {
				opts.Workers = workers
				res, err := Run(tc.space, EvaluatorFunc(awkwardEval), opts)
				if err != nil {
					t.Fatal(err)
				}
				if fingerprintRun(res) != want {
					t.Fatalf("workers=%d: grid-pool run diverged from the legacy reference", workers)
				}
				for i, it := range res.Iterations {
					if ref := reference.Iterations[i]; it.PredictedFrontSize != ref.PredictedFrontSize {
						t.Fatalf("workers=%d iteration %d: predicted front %d, reference %d",
							workers, i, it.PredictedFrontSize, ref.PredictedFrontSize)
					}
				}
			}
		})
	}
}

func TestPoolShapesPredictIdentically(t *testing.T) {
	// The same forests swept over the same space through both pool shapes —
	// the grid (PoolCap ≥ Size) and a flat matrix that happens to hold every
	// index — must give every configuration bit-identical objectives, and
	// both must equal Forest.Predict on the encoded configuration.
	for _, constrain := range []bool{false, true} {
		t.Run(fmt.Sprintf("constrained=%v", constrain), func(t *testing.T) {
			space := awkwardSpace()
			if constrain {
				space.SetConstraint(func(cfg param.Config) bool { return cfg[1] <= 2 || cfg[0] == 0 })
			}
			o := Options{Objectives: 2, Seed: 5}.withDefaults()
			gridSt := newPoolState(space, o)
			rng := rand.New(rand.NewSource(1))
			for _, idx := range space.SampleIndices(rng, 150) {
				cfg := space.AtIndex(idx)
				if err := gridSt.addSample(Sample{Index: idx, Config: cfg, Objs: awkwardEval(cfg)}); err != nil {
					t.Fatal(err)
				}
			}
			cols, err := gridSt.columns()
			if err != nil {
				t.Fatal(err)
			}
			forests, _, _, err := fitForests(t.Context(), cols, gridSt.ys, o, 1)
			if err != nil {
				t.Fatal(err)
			}

			if err := gridSt.pool(rng, nil, 3); err != nil {
				t.Fatal(err)
			}
			if gridSt.grid == nil || gridSt.poolFlat != nil {
				t.Fatal("an enumerable space must predict through the grid and never encode a flat pool")
			}
			if !constrain && gridSt.poolIdx != nil {
				t.Fatal("an unconstrained enumerable space needs no index list")
			}
			gridPoints := gridSt.predict(forests, 3)

			// A flat-shaped state over the same indices: not enumerable, its
			// pool the feasible indices in order.
			flatSt := newPoolState(space, o)
			flatSt.enumerable = false
			flatSt.poolIdx = space.FeasibleIndices()
			flatSt.poolFlat = make([]float64, len(flatSt.poolIdx)*flatSt.dim)
			flatSt.encodeRange(0, len(flatSt.poolIdx), 2)
			flatPoints := flatSt.predict(forests, 2)

			if len(gridPoints) != len(flatPoints) || len(gridPoints) != len(space.FeasibleIndices()) {
				t.Fatalf("pool sizes: grid %d, flat %d, feasible %d",
					len(gridPoints), len(flatPoints), len(space.FeasibleIndices()))
			}
			row := make([]float64, space.Dim())
			for i, gp := range gridPoints {
				fp := flatPoints[i]
				if gp.ID != fp.ID {
					t.Fatalf("point %d: grid ID %d, flat ID %d", i, gp.ID, fp.ID)
				}
				space.Encode(space.AtIndex(gp.ID), row)
				for j, f := range forests {
					want := math.Float64bits(f.Predict(row))
					if math.Float64bits(gp.Objs[j]) != want || math.Float64bits(fp.Objs[j]) != want {
						t.Fatalf("index %d objective %d: grid %v, flat %v, Predict %v",
							gp.ID, j, gp.Objs[j], fp.Objs[j], f.Predict(row))
					}
				}
			}
		})
	}
}
