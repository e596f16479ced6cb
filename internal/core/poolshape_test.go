package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/param"
	"repro/internal/pareto"
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
	// happens to hold every feasible index — must give every feasible
	// configuration bit-identical prediction columns, and both must equal
	// Forest.Predict on the encoded configuration.
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
			gridSt.predict(forests, 3)

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
			feasible := space.FeasibleIndices()
			drawnSt.poolIdx = feasible
			drawnSt.predict(forests, 2)

			// The grid's columns hold every cell, the drawn pool's one row
			// per listed index.
			for j := range forests {
				if g, d := len(gridSt.pred[j]), len(drawnSt.pred[j]); g != gridSt.grid.Cells() || d != len(feasible) {
					t.Fatalf("objective %d: all-cells column %d rows, drawn column %d, want %d and %d",
						j, g, d, gridSt.grid.Cells(), len(feasible))
				}
			}
			row := make([]float64, space.Dim())
			for i, id := range feasible {
				space.Encode(space.AtIndex(id), row)
				for j, f := range forests {
					want := math.Float64bits(f.Predict(row))
					g, d := gridSt.pred[j][id], drawnSt.pred[j][i]
					if math.Float64bits(g) != want || math.Float64bits(d) != want {
						t.Fatalf("index %d objective %d: all cells %v, drawn cells %v, Predict %v",
							id, j, g, d, f.Predict(row))
					}
				}
			}
		})
	}
}

// frontSpace is enumerable and large enough (14 400 cells) that every pool
// shape over it reaches pareto's prefilter. No objective reads "twin", and
// TestPoolFrontMatchesMaterialisedPool trains only on twin = 0, so no tree
// splits on it: each cell with twin = 1 predicts exactly like its twin = 0
// cell, and the predicted front holds exact duplicates, which the
// k-objective filter resolves by pool order.
func frontSpace() *param.Space {
	return param.MustSpace(
		param.Grid("a", 0, 4, 30),
		param.Grid("b", 0, 4, 30),
		param.Levels("c", 0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75),
		param.Levels("twin", 0, 1),
	)
}

// frontEval is a trade-off in two objectives and, with k = 3, a third that
// favours the middle of the space.
func frontEval(k int) EvaluatorFunc {
	return func(cfg param.Config) []float64 {
		a, b, c := cfg[0], cfg[1], cfg[2]
		objs := []float64{a + 0.5*b + c, (4-a)*(4-a) + (4 - b) + 0.3*math.Sin(9*c)}
		if k == 3 {
			objs = append(objs, (a-2)*(a-2)+(b-2)*(b-2)-c)
		}
		return objs
	}
}

func TestPoolFrontMatchesMaterialisedPool(t *testing.T) {
	// The predicted front read from the prediction columns must equal
	// FrontInPlace over every pool point materialised — IDs, objective bits
	// and order — on all three pool shapes, with two and three objectives.
	for _, k := range []int{2, 3} {
		for _, shape := range []struct {
			name      string
			constrain bool
			poolCap   int
		}{
			{"all-cells", false, 0},
			{"constrained", true, 0},
			{"drawn", false, 5000},
		} {
			t.Run(fmt.Sprintf("k=%d/%s", k, shape.name), func(t *testing.T) {
				space := frontSpace()
				if shape.constrain {
					space.SetConstraint(func(cfg param.Config) bool { return cfg[0]+cfg[1] > 1 && cfg[2] != 0.5 })
				}
				o := Options{Objectives: k, PoolCap: shape.poolCap, Seed: 3}.withDefaults()
				st := newPoolState(space, o)
				eval := frontEval(k)
				rng := rand.New(rand.NewSource(2))
				evaluated := make(map[int64]int)
				for i, idx := range space.SampleIndices(rng, 600) {
					cfg := space.AtIndex(idx)
					if cfg[3] != 0 {
						continue
					}
					if err := st.addSample(Sample{Index: idx, Config: cfg, Objs: eval(cfg)}); err != nil {
						t.Fatal(err)
					}
					evaluated[idx] = i
				}
				cols, err := st.columns()
				if err != nil {
					t.Fatal(err)
				}
				forests, _, _, err := fitForests(t.Context(), cols, st.ys, o, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.pool(rng, evaluated); err != nil {
					t.Fatal(err)
				}
				st.predict(forests, 2)
				got := st.front()

				// Every pool point, materialised.
				var all []pareto.Point
				add := func(id int64, row int) {
					objs := make([]float64, k)
					for j := range objs {
						objs[j] = st.pred[j][row]
					}
					all = append(all, pareto.Point{ID: id, Objs: objs})
				}
				switch {
				case !st.enumerable:
					for i, id := range st.poolIdx {
						add(id, i)
					}
				case st.poolIdx != nil:
					for _, id := range st.poolIdx {
						add(id, int(id))
					}
				default:
					for id := range st.pred[0] {
						add(int64(id), id)
					}
				}
				if len(all) < 4096 || (k == 2 && len(st.keep) == len(all)) {
					t.Fatalf("%d candidates of %d pool points: the prefilter did not run", len(st.keep), len(all))
				}
				want := pareto.FrontInPlace(all)
				if len(got) != len(want) || len(want) == 0 {
					t.Fatalf("front of %d points, materialised pool's %d", len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID {
						t.Fatalf("front point %d: ID %d, materialised pool's %d", i, got[i].ID, want[i].ID)
					}
					for j := range want[i].Objs {
						if math.Float64bits(got[i].Objs[j]) != math.Float64bits(want[i].Objs[j]) {
							t.Fatalf("front point %d objective %d: %v, materialised pool's %v", i, j, got[i].Objs[j], want[i].Objs[j])
						}
					}
				}
			})
		}
	}
}
