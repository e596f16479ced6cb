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
	// Whole seeded runs — predicted through the grid kernel when the space
	// fits under PoolCap, through the drawn-cells kernel when it does not —
	// must equal the legacy reference (row-by-row Forest.Predict over a
	// re-encoded pool) byte for byte, whatever the worker count.
	constrained := awkwardSpace()
	constrained.SetConstraint(func(cfg param.Config) bool {
		return !(cfg[0] == 1 && cfg[1] > 3) && cfg[3] != 4
	})
	for _, tc := range []struct {
		name    string
		space   *param.Space
		poolCap int // 0: the default, far above the space's 672 configurations
	}{
		{"boolean-first", awkwardSpace(), 0},
		{"boolean-first-constrained", constrained, 0},
		{"boolean-first-drawn", awkwardSpace(), 150},
		{"boolean-first-constrained-drawn", constrained, 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{
				Objectives:    2,
				RandomSamples: 40,
				MaxIterations: 3,
				MaxBatch:      20,
				PoolCap:       tc.poolCap,
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
					t.Fatalf("workers=%d: run diverged from the legacy reference", workers)
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
	// all cells of the grid (PoolCap ≥ Size) and a drawn-cells list that
	// happens to hold every index — must give every configuration
	// bit-identical objectives, and both must equal Forest.Predict on the
	// encoded configuration.
	for _, constrain := range []bool{false, true} {
		t.Run(fmt.Sprintf("constrained=%v", constrain), func(t *testing.T) {
			space := awkwardSpace()
			if constrain {
				space.SetConstraint(func(cfg param.Config) bool { return cfg[1] <= 2 || cfg[0] == 0 })
			}
			o := Options{Objectives: 2, Seed: 5}.withDefaults()
			gridSt := newPoolState(space, o)
			rng := rand.New(rand.NewSource(1))
			evaluated := make(map[int64]int)
			for i, idx := range space.SampleIndices(rng, 150) {
				cfg := space.AtIndex(idx)
				if err := gridSt.addSample(Sample{Index: idx, Config: cfg, Objs: awkwardEval(cfg)}); err != nil {
					t.Fatal(err)
				}
				evaluated[idx] = i
			}
			cols, err := gridSt.columns()
			if err != nil {
				t.Fatal(err)
			}
			forests, _, _, err := fitForests(t.Context(), cols, gridSt.ys, o, 1)
			if err != nil {
				t.Fatal(err)
			}

			if err := gridSt.pool(rng, evaluated); err != nil {
				t.Fatal(err)
			}
			if gridSt.grid == nil {
				t.Fatal("an enumerable space must predict through the grid")
			}
			if !constrain && gridSt.poolIdx != nil {
				t.Fatal("an unconstrained enumerable space needs no index list")
			}
			gridPoints := gridSt.predict(forests, 3)

			// A subsampled state of the same space: it holds the same grid
			// and a list of cells — this round's draw plus the evaluated
			// indices — and nothing per configuration.
			o.PoolCap = 100
			drawnSt := newPoolState(space, o)
			if err := drawnSt.pool(rng, evaluated); err != nil {
				t.Fatal(err)
			}
			if drawnSt.enumerable || drawnSt.grid == nil || drawnSt.grid.Cells() != gridSt.grid.Cells() {
				t.Fatal("a subsampled space must hold the whole grid too")
			}
			if n := len(drawnSt.poolIdx); n < o.PoolCap || n > o.PoolCap+len(evaluated) {
				t.Fatalf("drawn pool holds %d cells, want %d draws plus up to %d evaluated", n, o.PoolCap, len(evaluated))
			}
			// Predict every feasible index through it, in order.
			drawnSt.poolIdx = space.FeasibleIndices()
			drawnPoints := drawnSt.predict(forests, 2)

			if len(gridPoints) != len(drawnPoints) || len(gridPoints) != len(space.FeasibleIndices()) {
				t.Fatalf("pool sizes: all cells %d, drawn cells %d, feasible %d",
					len(gridPoints), len(drawnPoints), len(space.FeasibleIndices()))
			}
			row := make([]float64, space.Dim())
			for i, gp := range gridPoints {
				dp := drawnPoints[i]
				if gp.ID != dp.ID {
					t.Fatalf("point %d: all-cells ID %d, drawn-cells ID %d", i, gp.ID, dp.ID)
				}
				space.Encode(space.AtIndex(gp.ID), row)
				for j, f := range forests {
					want := math.Float64bits(f.Predict(row))
					if math.Float64bits(gp.Objs[j]) != want || math.Float64bits(dp.Objs[j]) != want {
						t.Fatalf("index %d objective %d: all cells %v, drawn cells %v, Predict %v",
							gp.ID, j, gp.Objs[j], dp.Objs[j], f.Predict(row))
					}
				}
			}
		})
	}
}
