package forest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// makeTieHeavy builds a dataset shaped like the paper's KFusion space:
// every feature takes a handful of discrete levels (volume resolution,
// pyramid iterations, ...), so sorted columns are dominated by runs of
// equal values — the regime where tie handling in split search and
// partitioning must agree exactly between builder strategies.
func makeTieHeavy(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	levels := []float64{64, 128, 256, 512}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = levels[rng.Intn(len(levels))]
		}
		x[i] = row
		y[i] = row[0]/64 + row[d-1]/512 + rng.NormFloat64()*0.1
	}
	return x, y
}

func makeContinuous(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64() * 4
		}
		x[i] = row
		y[i] = math.Sin(row[0])*3 + row[1]*row[1] + rng.NormFloat64()*0.05
	}
	return x, y
}

// forestsIdentical compares two fitted forests bit for bit: every tree's
// flat arrays, the importance vector, and the OOB estimate (NaN == NaN).
func forestsIdentical(t *testing.T, fast, ref *Forest) {
	t.Helper()
	if len(fast.trees) != len(ref.trees) {
		t.Fatalf("tree counts differ: %d vs %d", len(fast.trees), len(ref.trees))
	}
	for i := range fast.trees {
		if !reflect.DeepEqual(fast.trees[i], ref.trees[i]) {
			t.Fatalf("tree %d differs between presorted and reference builders", i)
		}
	}
	if !reflect.DeepEqual(fast.importance, ref.importance) {
		t.Fatalf("importance differs: %v vs %v", fast.importance, ref.importance)
	}
	fe, re := fast.OOBError(), ref.OOBError()
	if fe != re && !(math.IsNaN(fe) && math.IsNaN(re)) {
		t.Fatalf("OOB error differs: %v vs %v", fe, re)
	}
	if fast.OOBSamples() != ref.OOBSamples() {
		t.Fatalf("OOB samples differ: %d vs %d", fast.OOBSamples(), ref.OOBSamples())
	}
}

// TestFitMatchesLegacyPath locks the presorted column-major fast path to
// the retained legacy re-sorting builder: same seed, byte-identical
// forests, across continuous and tie-heavy integer feature distributions,
// training sizes from degenerate to AL-representative, subsampled bags,
// depth caps, and full-mtry settings.
func TestFitMatchesLegacyPath(t *testing.T) {
	type dataset struct {
		name string
		make func(*rand.Rand, int, int) ([][]float64, []float64)
	}
	datasets := []dataset{
		{"continuous", makeContinuous},
		{"tie-heavy", makeTieHeavy},
	}
	optVariants := []Options{
		{Trees: 16, Seed: 1},
		{Trees: 8, Seed: 2, MaxDepth: 3},
		{Trees: 8, Seed: 3, SampleRatio: 0.6, MinSamplesLeaf: 4},
		{Trees: 8, Seed: 4, MaxFeatures: 9}, // mtry = d: every feature scanned
	}
	for _, ds := range datasets {
		for _, n := range []int{1, 2, 7, 50, 300} {
			for vi, base := range optVariants {
				t.Run(fmt.Sprintf("%s/n=%d/v%d", ds.name, n, vi), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n)*100 + int64(vi)))
					x, y := ds.make(rng, n, 9)
					fast, err := Fit(x, y, base)
					if err != nil {
						t.Fatal(err)
					}
					legacy := base
					legacy.Reference = true
					ref, err := Fit(x, y, legacy)
					if err != nil {
						t.Fatal(err)
					}
					forestsIdentical(t, fast, ref)
					// And through the prediction path, for good measure.
					probe := make([]float64, 9)
					for i := range probe {
						probe[i] = rng.Float64() * 4
					}
					if fast.Predict(probe) != ref.Predict(probe) {
						t.Fatal("predictions diverged despite identical trees")
					}
				})
			}
		}
	}
}

// TestRefitMatchesFreshFit drives the warm-started seam the AL loop uses:
// appending batches to one shared Columns and refitting must equal a
// from-scratch Fit over the accumulated rows, bit for bit, at every step.
func TestRefitMatchesFreshFit(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	x, y := makeTieHeavy(rng, 240, 9)
	cols := NewColumns(9)
	opts := Options{Trees: 8, Seed: 5}
	consumed := 0
	for _, batch := range []int{40, 1, 60, 139} {
		if err := cols.AppendRows(x[consumed : consumed+batch]); err != nil {
			t.Fatal(err)
		}
		consumed += batch
		warm, err := Refit(cols, y[:consumed], opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Fit(x[:consumed], y[:consumed], opts)
		if err != nil {
			t.Fatal(err)
		}
		forestsIdentical(t, warm, fresh)
	}
}

// TestColumnsIncrementalMatchesBulk: merged per-feature orders after
// arbitrary batch splits must equal the bulk-built orders exactly — the
// (value, row) key is a strict total order, so there is only one answer.
func TestColumnsIncrementalMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, _ := makeTieHeavy(rng, 200, 5)
	bulk, err := ColumnsFromRows(x)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewColumns(5)
	for lo := 0; lo < len(x); {
		hi := lo + 1 + rng.Intn(37)
		if hi > len(x) {
			hi = len(x)
		}
		if err := inc.AppendRows(x[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if !reflect.DeepEqual(bulk.vals, inc.vals) {
		t.Fatal("column values diverged between bulk and incremental builds")
	}
	if !reflect.DeepEqual(bulk.sort, inc.sort) {
		t.Fatal("sorted orders diverged between bulk and incremental builds")
	}
	for f := 0; f < inc.dim; f++ {
		assertSortedByValRow(t, inc.vals[f], inc.sort[f])
	}
}

func TestColumnsValidation(t *testing.T) {
	if _, err := ColumnsFromRows(nil); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := ColumnsFromRows([][]float64{{}}); err == nil {
		t.Fatal("expected error on zero-dim rows")
	}
	c := NewColumns(2)
	if err := c.AppendRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error on ragged batch")
	}
	if err := c.AppendRows(nil); err != nil {
		t.Fatalf("empty append should be a no-op, got %v", err)
	}
	if _, err := Refit(NewColumns(3), nil, Options{}); err == nil {
		t.Fatal("expected error on refit over an empty matrix")
	}
}

func assertSortedByValRow(t *testing.T, col []float64, order []int32) {
	t.Helper()
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if col[a] > col[b] || (col[a] == col[b] && a >= b) {
			t.Fatalf("order violates (value, row) at %d: (%v,%d) then (%v,%d)",
				i, col[a], a, col[b], b)
		}
	}
}

// TestPresortedListsStaySorted is the structural property behind the whole
// fast path: at every node the builder visits, every feature's index-list
// segment must still be ordered by (value, row) — i.e. stable partitioning
// preserved the presorted invariant through arbitrarily deep recursions.
// Tie-heavy data makes the partitions maximally degenerate.
func TestPresortedListsStaySorted(t *testing.T) {
	checked := 0
	debugCheckSorted = func(b *treeBuilder, lo, hi int) {
		checked++
		for f := 0; f < b.cols.dim; f++ {
			seg := b.lists[f*b.bagSize+lo : f*b.bagSize+hi]
			col := b.cols.vals[f]
			for i := 1; i < len(seg); i++ {
				a, bb := seg[i-1], seg[i]
				if col[a] > col[bb] || (col[a] == col[bb] && a > bb) {
					t.Errorf("node [%d,%d) feature %d: segment out of order at %d", lo, hi, f, i)
					return
				}
			}
		}
	}
	defer func() { debugCheckSorted = nil }()

	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var x [][]float64
		var y []float64
		if seed%2 == 0 {
			x, y = makeTieHeavy(rng, 80+int(seed)*13, 6)
		} else {
			x, y = makeContinuous(rng, 80+int(seed)*13, 6)
		}
		// Workers 1 keeps the unsynchronized `checked` counter race-free.
		if _, err := Fit(x, y, Options{Trees: 4, Seed: seed, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("invariant hook never ran")
	}
}

// TestOOBUndefinedIsNaN: with a single training sample the bootstrap always
// contains it, so no out-of-bag estimate exists — that must surface as NaN
// plus a zero OOBSamples count, not as a "perfect" 0.
func TestOOBUndefinedIsNaN(t *testing.T) {
	f, err := Fit([][]float64{{1, 2}}, []float64{7}, Options{Trees: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(f.OOBError()) {
		t.Fatalf("OOBError with no OOB samples = %v, want NaN", f.OOBError())
	}
	if f.OOBSamples() != 0 {
		t.Fatalf("OOBSamples = %d, want 0", f.OOBSamples())
	}

	rng := rand.New(rand.NewSource(3))
	x, y := makeContinuous(rng, 300, 3)
	f, err = Fit(x, y, Options{Trees: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.OOBSamples() == 0 || math.IsNaN(f.OOBError()) {
		t.Fatalf("large fit lost its OOB estimate: err=%v samples=%d", f.OOBError(), f.OOBSamples())
	}
}

// BenchmarkForestFit compares the presorted fast path against the retained
// re-sorting reference builder at active-learning-representative shapes:
// training sets the size X_out reaches across iterations, paper-scale
// dimensionality, a 32-tree ensemble. The grid and dbms rows refit the
// engine's own forests on one worker from a prebuilt Columns, as every
// active-learning round does: 32 trees on the inproc_pool192k grid after the
// bootstrap (n = 1000) and near the end of a run (n = 2800), and 16 trees on
// the dbms space after four rounds of durable_fleet3_tenants (n = 260).
func BenchmarkForestFit(b *testing.B) {
	for _, c := range []struct {
		name   string
		levels [][]float64
		n      int
		trees  int
	}{
		{"grid/n=1000", alGrid(), 1000, 32},
		{"grid/n=2800", alGrid(), 2800, 32},
		{"dbms/n=260", dbmsGrid(), 260, 16},
	} {
		b.Run(c.name, func(b *testing.B) {
			x, y := gridSamples(c.levels, c.n, 1)
			cols, err := ColumnsFromRows(x)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Refit(cols, y, Options{Trees: c.trees, Seed: int64(i), Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, shape := range []struct{ n, d int }{{50, 12}, {200, 12}, {500, 12}} {
		rng := rand.New(rand.NewSource(int64(shape.n)))
		x, y := makeTieHeavy(rng, shape.n, shape.d)
		for _, mode := range []struct {
			name      string
			reference bool
		}{
			{"presorted", false},
			{"reference", true},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, shape.n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					opts := Options{Trees: 32, Seed: int64(i), Reference: mode.reference}
					if _, err := Fit(x, y, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
