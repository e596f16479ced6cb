package forest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gridRows encodes every cell of the grid as a flat row-major matrix, cell i
// being the mixed-radix decoding of i with feature 0 most significant — the
// rows PredictFlat must see for PredictGrid's out[i] to mean the same cell.
func gridRows(levels [][]float64) (flat []float64, cells int) {
	cells = 1
	for _, lv := range levels {
		cells *= len(lv)
	}
	dim := len(levels)
	flat = make([]float64, cells*dim)
	for i := 0; i < cells; i++ {
		rem := i
		for f := dim - 1; f >= 0; f-- {
			n := len(levels[f])
			flat[i*dim+f] = levels[f][rem%n]
			rem /= n
		}
	}
	return flat, cells
}

// gridSamples draws n random cells of the grid with a target that depends
// on every feature, so the trees split on all of them.
func gridSamples(levels [][]float64, n int, seed int64) (x [][]float64, y []float64) {
	rng := rand.New(rand.NewSource(seed + 99))
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		row := make([]float64, len(levels))
		for f, lv := range levels {
			row[f] = lv[rng.Intn(len(lv))]
			y[i] += math.Sin(row[f]*float64(f+1)) * float64(f+1)
		}
		x[i] = row
		y[i] += rng.NormFloat64() * 0.01
	}
	return x, y
}

// fitOnGrid trains a forest on gridSamples(levels, n, opts.Seed).
func fitOnGrid(t testing.TB, levels [][]float64, n int, opts Options) *Forest {
	t.Helper()
	x, y := gridSamples(levels, n, opts.Seed)
	f, err := Fit(x, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func logLevels(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Log10(lo * math.Pow(hi/lo, float64(i)/float64(n-1)))
	}
	return out
}

func linLevels(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

func TestPredictGridMatchesPredictFlat(t *testing.T) {
	// The box-fill sweep must equal the flat kernel bit for bit on every
	// cell, for every shape of level list and tree, at every worker count.
	boolean := []float64{0, 1}
	wide := make([][]float64, gridStackDim+1) // past the stack-resident box
	for i := range wide {
		wide[i] = boolean
	}
	wide[3] = []float64{2, 0, 1}
	cases := []struct {
		name   string
		levels [][]float64
		opts   Options
	}{
		{"sorted-grids", [][]float64{linLevels(0, 4, 12), linLevels(0, 4, 9), linLevels(0, 1, 7)}, Options{Trees: 8}},
		{"unsorted-levels", [][]float64{{8, 1, 4, 2}, {3, 9, 5}, {7, 2, 6, 1, 5}}, Options{Trees: 8}},
		{"unsorted-last-only", [][]float64{linLevels(0, 4, 6), {5, 3, 4, 1}}, Options{Trees: 8}},
		{"duplicate-levels", [][]float64{{2, 1, 2, 1}, {1, 1, 3}}, Options{Trees: 6}},
		{"log-grid", [][]float64{logLevels(1e-5, 1e-1, 11), linLevels(0, 1, 5)}, Options{Trees: 8}},
		{"boolean-first", [][]float64{boolean, linLevels(0, 4, 10), {4, 2, 1}}, Options{Trees: 8}},
		{"booleans-then-grid", [][]float64{boolean, boolean, linLevels(0, 4, 10)}, Options{Trees: 8}},
		{"one-level-parameter", [][]float64{linLevels(0, 4, 10), {3}, linLevels(0, 1, 6)}, Options{Trees: 8}},
		{"one-level-first", [][]float64{{3}, linLevels(0, 1, 6)}, Options{Trees: 4}},
		{"single-feature", [][]float64{{5, 1, 3, 2, 4}}, Options{Trees: 5}},
		{"nan-and-inf-levels", [][]float64{{math.NaN(), 1, math.Inf(-1), 2, math.Inf(1)}, linLevels(0, 1, 4)}, Options{Trees: 6}},
		{"wide", wide, Options{Trees: 4}},
		{"stumps", [][]float64{linLevels(0, 4, 10), {2, 1, 3}}, Options{Trees: 8, maxDepth: 1}},
		{"single-leaf", [][]float64{linLevels(0, 4, 10), {2, 1, 3}}, Options{Trees: 3, minSamplesLeaf: 1 << 20}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Seed = 7
			f := fitOnGrid(t, tc.levels, 120, tc.opts)
			if tc.name == "single-leaf" {
				for _, tr := range f.trees {
					if len(tr.feature) != 1 {
						t.Fatalf("want single-leaf trees, got %d nodes", len(tr.feature))
					}
				}
			}
			flat, cells := gridRows(tc.levels)
			want := make([]float64, cells)
			f.PredictFlat(flat, len(tc.levels), want)

			g, err := NewGrid(tc.levels)
			if err != nil {
				t.Fatal(err)
			}
			if g.Cells() != cells || g.Dim() != len(tc.levels) {
				t.Fatalf("grid is %d cells × %d features, want %d × %d", g.Cells(), g.Dim(), cells, len(tc.levels))
			}
			for _, workers := range []int{1, 2, 3, 4, 0} {
				got := make([]float64, cells+3)
				for i := range got {
					got[i] = math.NaN() // stale scratch must not leak into the sweep
				}
				f.PredictGrid(g, got, workers)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("workers=%d cell %d: grid %v (%#x), flat %v (%#x)", workers, i,
							got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
				for _, v := range got[cells:] {
					if !math.IsNaN(v) {
						t.Fatalf("workers=%d wrote past the grid", workers)
					}
				}
			}
		})
	}
}

func TestPredictGridRandomShapes(t *testing.T) {
	// Property check over random level lists (shuffled, so most are
	// unsorted) and random forests.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		dim := 1 + rng.Intn(4)
		levels := make([][]float64, dim)
		for f := range levels {
			levels[f] = make([]float64, 1+rng.Intn(7))
			for l := range levels[f] {
				levels[f][l] = float64(rng.Intn(9)) // small range ⇒ ties
			}
		}
		f := fitOnGrid(t, levels, 20+rng.Intn(80), Options{Trees: 1 + rng.Intn(6), Seed: int64(trial), maxDepth: rng.Intn(5)})
		flat, cells := gridRows(levels)
		want := make([]float64, cells)
		f.PredictFlat(flat, dim, want)
		g, err := NewGrid(levels)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, cells)
		f.PredictGrid(g, got, 1+rng.Intn(4))
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d levels %v cell %d: grid %v, flat %v", trial, levels, i, got[i], want[i])
			}
		}
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(nil); err == nil {
		t.Fatal("expected error on a grid with no features")
	}
	if _, err := NewGrid([][]float64{{1, 2}, {}}); err == nil {
		t.Fatal("expected error on a feature with no levels")
	}
	huge := make([][]float64, 70)
	for i := range huge {
		huge[i] = []float64{0, 1}
	}
	if _, err := NewGrid(huge); err == nil {
		t.Fatal("expected error on a cell count that overflows int")
	}

	f := fitOnGrid(t, [][]float64{{1, 2, 3}, {1, 2}}, 20, Options{Trees: 2, Seed: 1})
	g, err := NewGrid([][]float64{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "feature mismatch", func() { f.PredictGrid(g, make([]float64, 3), 1) })
	g2, _ := NewGrid([][]float64{{1, 2, 3}, {1, 2}})
	mustPanic(t, "short out", func() { f.PredictGrid(g2, make([]float64, 5), 1) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestGridSweepAllocationFree(t *testing.T) {
	// The serial sweep — what every worker runs — allocates nothing: its box
	// lives on the stack, and there are no per-node level lists or per-leaf
	// slices to allocate.
	levels := [][]float64{linLevels(0, 4, 20), {3, 1, 2}, linLevels(0, 1, 10)}
	f := fitOnGrid(t, levels, 300, Options{Trees: 16, Seed: 1})
	g, err := NewGrid(levels)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, g.Cells())
	if allocs := testing.AllocsPerRun(50, func() { f.sweepSlabs(g, out, 1, 0, 20) }); allocs != 0 {
		t.Fatalf("grid sweep allocated %v times per run, want 0", allocs)
	}
}

// alGrid is the BenchmarkALIteration / inproc_pool192k pool: 80×80×30.
func alGrid() [][]float64 {
	return [][]float64{linLevels(0, 4, 80), linLevels(0, 4, 80), linLevels(0, 1, 30)}
}

// benchGridForest fits 32 trees on n measured cells of alGrid — n = 1000 and
// 2500 bracket the training-set sizes of an active-learning run on it.
func benchGridForest(b *testing.B, n int) *Forest {
	return fitOnGrid(b, alGrid(), n, Options{Trees: 32, Seed: 1})
}

// BenchmarkPredictGrid and BenchmarkPredictFlat sweep the same 192 000-cell
// pool with the same forests through the two pool-prediction kernels.
func BenchmarkPredictGrid(b *testing.B) {
	for _, n := range []int{1000, 2500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := benchGridForest(b, n)
			g, err := NewGrid(alGrid())
			if err != nil {
				b.Fatal(err)
			}
			out := make([]float64, g.Cells())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.PredictGrid(g, out, 0)
			}
		})
	}
}

func BenchmarkPredictFlat(b *testing.B) {
	for _, n := range []int{1000, 2500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := benchGridForest(b, n)
			flat, cells := gridRows(alGrid())
			out := make([]float64, cells)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.PredictFlat(flat, 3, out)
			}
		})
	}
}
