package forest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cellRows encodes the listed cells as a flat row-major matrix — the rows
// PredictFlatRange must see for PredictCells' out[i] to mean cells[i].
func cellRows(levels [][]float64, cells []int64) []float64 {
	dim := len(levels)
	flat := make([]float64, len(cells)*dim)
	for i, c := range cells {
		for f := dim - 1; f >= 0; f-- {
			n := int64(len(levels[f]))
			flat[i*dim+f] = levels[f][c%n]
			c /= n
		}
	}
	return flat
}

// cellLists returns the cell lists every case is predicted over: nothing,
// the whole grid in order, every length 1..9 (each remainder of the
// interleave width, with and without a whole group before it), and a long
// unsorted draw with repeats that crosses a scratch block.
func cellLists(rng *rand.Rand, cells int) map[string][]int64 {
	whole := make([]int64, cells)
	for i := range whole {
		whole[i] = int64(i)
	}
	lists := map[string][]int64{"empty": {}, "whole-grid": whole}
	for n := 1; n <= 9; n++ {
		l := make([]int64, n)
		for i := range l {
			l[i] = rng.Int63n(int64(cells))
		}
		lists[fmt.Sprintf("len-%d", n)] = l
	}
	draw := make([]int64, 3*cellsBlock/2+3)
	for i := range draw {
		draw[i] = rng.Int63n(int64(cells))
	}
	copy(draw[10:], draw[:5]) // repeats even on a grid larger than the draw
	lists["drawn-unsorted-repeated"] = draw
	lists["one-cell-repeated"] = []int64{whole[cells-1], whole[cells-1], whole[cells-1], whole[cells-1], whole[cells-1]}
	return lists
}

// cellKernels are the ways a test predicts drawn cells: PredictCells,
// which picks its kernel by leafWords, and each of its two kernels forced,
// whatever the forest's width.
var cellKernels = []struct {
	name    string
	predict func(f *Forest, g *Grid, cells []int64, out []float64, workers int)
}{
	{"PredictCells", (*Forest).PredictCells},
	{"masks", func(f *Forest, g *Grid, cells []int64, out []float64, workers int) {
		f.predictCells(g, cells, out, workers, true)
	}},
	{"walk", func(f *Forest, g *Grid, cells []int64, out []float64, workers int) {
		f.predictCells(g, cells, out, workers, false)
	}},
}

// checkCells asserts the three pool kernels agree to the bit on every cell
// list, at every worker count, with the drawn-cell kernel both by leaf
// bitmasks and by the rank walk.
func checkCells(t *testing.T, f *Forest, levels [][]float64) {
	t.Helper()
	g, err := NewGrid(levels)
	if err != nil {
		t.Fatal(err)
	}
	dim := len(levels)
	grid := make([]float64, g.Cells())
	f.PredictGrid(g, grid, 2)
	for name, cells := range cellLists(rand.New(rand.NewSource(int64(g.Cells()))), g.Cells()) {
		want := make([]float64, len(cells))
		f.PredictFlatRange(cellRows(levels, cells), dim, 0, len(cells), want)
		for _, k := range cellKernels {
			for _, workers := range []int{0, 1, 2, 3, 4} {
				got := make([]float64, len(cells)+2)
				for i := range got {
					got[i] = math.NaN() // stale output must not leak into the sum
				}
				k.predict(f, g, cells, got, workers)
				for i, c := range cells {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(got[i]) != math.Float64bits(grid[c]) {
						t.Fatalf("%s %s workers=%d position %d cell %d: cells %v (%#x), flat %v (%#x), grid %v (%#x)", k.name, name, workers, i, c,
							got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), grid[c], math.Float64bits(grid[c]))
					}
				}
				for _, v := range got[len(cells):] {
					if !math.IsNaN(v) {
						t.Fatalf("%s %s workers=%d wrote past the cell list", k.name, name, workers)
					}
				}
			}
		}
	}
}

// shuffled returns n evenly spaced levels in a seeded random order.
func shuffled(lo, hi float64, n int, seed int64) []float64 {
	lv := linLevels(lo, hi, n)
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { lv[i], lv[j] = lv[j], lv[i] })
	return lv
}

func TestPredictCellsMatchesFlatAndGrid(t *testing.T) {
	boolean := []float64{0, 1}
	// Wider than the grid sweep's stack-resident box, and far wider: most
	// features fixed so the whole grid stays small enough to enumerate.
	wide := func(dim int) [][]float64 {
		levels := make([][]float64, dim)
		for i := range levels {
			levels[i] = []float64{float64(i % 5)}
		}
		for _, i := range []int{0, 2, 3, 7, dim / 2, dim - 2, dim - 1} {
			levels[i] = boolean
		}
		levels[5] = []float64{2, 0, 1}
		return levels
	}
	cases := []struct {
		name   string
		levels [][]float64
		opts   Options
	}{
		{"sorted-grids", [][]float64{linLevels(0, 4, 12), linLevels(0, 4, 9), linLevels(0, 1, 7)}, Options{Trees: 8}},
		{"unsorted-levels", [][]float64{{8, 1, 4, 2}, {3, 9, 5}, {7, 2, 6, 1, 5}}, Options{Trees: 8}},
		{"log-grid", [][]float64{logLevels(1e-5, 1e-1, 11), linLevels(0, 1, 5)}, Options{Trees: 8}},
		{"boolean-first", [][]float64{boolean, linLevels(0, 4, 10), {4, 2, 1}}, Options{Trees: 8}},
		{"one-level-parameter", [][]float64{linLevels(0, 4, 10), {3}, linLevels(0, 1, 6)}, Options{Trees: 8}},
		{"one-level-first-and-last", [][]float64{{3}, linLevels(0, 1, 6), {-1}}, Options{Trees: 4}},
		{"single-feature", [][]float64{{5, 1, 3, 2, 4}}, Options{Trees: 5}},
		{"one-cell", [][]float64{{5}, {1}}, Options{Trees: 3}},
		{"duplicate-levels", [][]float64{{2, 1, 2, 1}, {1, 1, 3}}, Options{Trees: 6}},
		{"nan-and-inf-levels", [][]float64{{math.NaN(), 1, math.Inf(-1), 2, math.Inf(1)}, linLevels(0, 1, 4)}, Options{Trees: 6}},
		{"300-levels", [][]float64{{2, 0, 1}, shuffled(0, 7, 300, 5)}, Options{Trees: 8}},
		{"17-features", wide(gridStackDim + 1), Options{Trees: 6, MaxFeatures: 6}},
		{"300-features", wide(300), Options{Trees: 6, MaxFeatures: 150}},
		{"stumps", [][]float64{linLevels(0, 4, 10), {2, 1, 3}}, Options{Trees: 8, MaxDepth: 1}},
		{"single-leaf", [][]float64{linLevels(0, 4, 10), {2, 1, 3}}, Options{Trees: 3, MinSamplesLeaf: 1 << 20}},
		{"deep", [][]float64{shuffled(0, 9, 40, 1), shuffled(0, 9, 40, 2), boolean}, Options{Trees: 16, MinSamplesLeaf: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Seed = 7
			f := fitOnGrid(t, tc.levels, 260, tc.opts)
			nodes := 0
			for _, tr := range f.trees {
				nodes += len(tr.feature)
			}
			switch tc.name {
			case "single-leaf", "one-cell":
				if nodes != len(f.trees) {
					t.Fatalf("want single-leaf trees, got %d nodes in %d trees", nodes, len(f.trees))
				}
			case "stumps":
				if nodes != 3*len(f.trees) {
					t.Fatalf("want stumps, got %d nodes in %d trees", nodes, len(f.trees))
				}
			case "300-levels", "17-features", "300-features", "deep":
				if nodes < 5*len(f.trees) {
					t.Fatalf("the forest barely splits (%d nodes in %d trees); the case tests nothing", nodes, len(f.trees))
				}
			}
			checkCells(t, f, tc.levels)
		})
	}
}

// truncate returns t cut to its first `leaves` leaves in breadth-first
// order: starting from the root alone, frontier nodes are expanded level by
// level, each expansion adding one leaf, until the count is reached. The
// result is compact (every node reachable) and keeps the fitted thresholds
// and node means. t must have at least `leaves` leaves.
func truncate(t *tree, leaves int) *tree {
	keep := map[int32]bool{} // nodes kept as internal
	n := 1
	for frontier := []int32{0}; len(frontier) > 0 && n < leaves; {
		var next []int32
		for _, j := range frontier {
			if t.feature[j] < 0 || n >= leaves {
				continue
			}
			keep[j] = true
			n++
			next = append(next, t.left[j], t.right[j])
		}
		frontier = next
	}
	out := &tree{}
	var copyNode func(j int32) int32
	copyNode = func(j int32) int32 {
		k := int32(len(out.feature))
		out.feature = append(out.feature, -1)
		out.thresh = append(out.thresh, 0)
		out.left = append(out.left, -1)
		out.right = append(out.right, -1)
		out.value = append(out.value, t.value[j])
		if keep[j] {
			out.feature[k], out.thresh[k] = t.feature[j], t.thresh[j]
			out.left[k] = copyNode(t.left[j])
			out.right[k] = copyNode(t.right[j])
		}
		return k
	}
	copyNode(0)
	return out
}

// leafCount is the number of leaves of t.
func leafCount(t *tree) int {
	n := 0
	for _, ft := range t.feature {
		if ft < 0 {
			n++
		}
	}
	return n
}

// TestPredictCellsWordBoundaries predicts with fitted forests cut so that
// the widest tree has exactly 64k or 64k+1 leaves: the last leaf of a word
// and the first of the next, up to and past cellsMaskWords, past which
// PredictCells must walk. The other trees are cut narrower by varying
// amounts, so trees of one forest end in different words.
func TestPredictCellsWordBoundaries(t *testing.T) {
	levels := [][]float64{shuffled(0, 9, 60, 1), shuffled(0, 9, 50, 2), {2, 0, 1}, linLevels(0, 1, 7)}
	deep := fitOnGrid(t, levels, 2000, Options{Trees: 6, MinSamplesLeaf: 1, MaxFeatures: 4, Seed: 3})
	for _, widest := range []int{1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257, 320, 321} {
		t.Run(fmt.Sprintf("widest-%d", widest), func(t *testing.T) {
			f := &Forest{nFeatures: deep.nFeatures}
			for i, tr := range deep.trees {
				f.trees = append(f.trees, truncate(tr, min(leafCount(tr), max(1, widest-37*i))))
			}
			most := 0
			for _, tr := range f.trees {
				most = max(most, leafCount(tr))
			}
			if most != widest {
				t.Fatalf("widest tree has %d leaves, want %d", most, widest)
			}
			if masks := f.leafWords() <= cellsMaskWords; masks != (widest <= 64*cellsMaskWords) {
				t.Fatalf("%d leaves, %d words: PredictCells scores by masks = %v", widest, f.leafWords(), masks)
			}
			checkCells(t, f, levels)
		})
	}
}

// randomForest builds trees by hand rather than by fitting, so thresholds
// land where fitted midpoints rarely do: exactly on a level (the `<=` edge),
// outside the level range, on ±Inf and on NaN.
func randomForest(rng *rand.Rand, levels [][]float64, trees, maxDepth int) *Forest {
	f := &Forest{nFeatures: len(levels)}
	for ti := 0; ti < trees; ti++ {
		t := &tree{}
		var grow func(depth int) int32
		grow = func(depth int) int32 {
			j := int32(len(t.feature))
			t.feature = append(t.feature, -1)
			t.thresh = append(t.thresh, 0)
			t.left = append(t.left, -1)
			t.right = append(t.right, -1)
			t.value = append(t.value, rng.NormFloat64())
			if depth >= maxDepth || rng.Intn(5) == 0 {
				return j
			}
			ft := rng.Intn(len(levels))
			lv := levels[ft]
			var thresh float64
			switch rng.Intn(8) {
			case 0:
				thresh = math.NaN()
			case 1:
				thresh = math.Inf(1 - 2*rng.Intn(2))
			case 2:
				thresh = lv[rng.Intn(len(lv))] - 100
			case 3, 4:
				thresh = (lv[rng.Intn(len(lv))] + lv[rng.Intn(len(lv))]) / 2
			default:
				thresh = lv[rng.Intn(len(lv))]
			}
			t.feature[j], t.thresh[j] = int32(ft), thresh
			t.left[j] = grow(depth + 1)
			t.right[j] = grow(depth + 1)
			return j
		}
		grow(0)
		f.trees = append(f.trees, t)
	}
	return f
}

func TestPredictCellsRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 40; trial++ {
		dim := 1 + rng.Intn(5)
		levels := make([][]float64, dim)
		for f := range levels {
			levels[f] = make([]float64, 1+rng.Intn(7))
			for l := range levels[f] {
				levels[f][l] = float64(rng.Intn(9)) // small range ⇒ ties
				if rng.Intn(12) == 0 {
					levels[f][l] = special[rng.Intn(len(special))]
				}
			}
		}
		t.Run(fmt.Sprintf("hand-built-%d", trial), func(t *testing.T) {
			checkCells(t, randomForest(rng, levels, 1+rng.Intn(6), rng.Intn(9)), levels)
		})
	}
}

func TestPredictCellsValidation(t *testing.T) {
	levels := [][]float64{{1, 2, 3}, {1, 2}}
	f := fitOnGrid(t, levels, 20, Options{Trees: 2, Seed: 1})
	g, err := NewGrid(levels)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := NewGrid(levels[:1])
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 8)
	for _, workers := range []int{1, 3} {
		mustPanic(t, "feature mismatch", func() { f.PredictCells(narrow, []int64{0}, out, workers) })
		mustPanic(t, "short out", func() { f.PredictCells(g, []int64{0, 1, 2}, out[:2], workers) })
		mustPanic(t, "cell past the grid", func() { f.PredictCells(g, []int64{0, 1, 2, 3, 4, 6}, out, workers) })
		mustPanic(t, "negative cell", func() { f.PredictCells(g, []int64{0, -1}, out, workers) })
	}
	f.PredictCells(g, []int64{5}, out, 1) // the last cell is inside
}

func TestPredictCellsAllocatesNothingPerCell(t *testing.T) {
	// What a call allocates depends on the forest (the packed nodes or
	// masks) and the worker count (fixed-size scratch each) — never on how
	// many cells it predicts.
	levels := dbmsGrid()
	f := fitOnGrid(t, levels, 260, Options{Trees: 16, Seed: 1})
	g, err := NewGrid(levels)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range cellKernels {
		allocs := func(n int) float64 {
			cells := drawCells(g, n)
			out := make([]float64, n)
			return testing.AllocsPerRun(10, func() { k.predict(f, g, cells, out, 1) })
		}
		few, many := allocs(100), allocs(50_000)
		if few != many || few > 8 {
			t.Fatalf("%s allocated %v times for 100 cells and %v for 50 000; want the same small count", k.name, few, many)
		}
	}
}

// dbmsGrid has the level structure of specs/dbms_knobs.json (75 600 cells),
// the space of the durable_fleet3_tenants workload; kfusionGrid that of the
// KFusion space (1.8 M cells). Only the level counts and their order matter
// to the kernels, so the values are plain ascending grids.
func dbmsGrid() [][]float64 {
	return [][]float64{logLevels(64, 16384, 9), logLevels(16, 1024, 7), linLevels(50, 800, 5), linLevels(30, 300, 10),
		{0, 1}, {0, 1}, linLevels(1, 32, 6)}
}

func kfusionGrid() [][]float64 {
	return [][]float64{linLevels(64, 256, 3), linLevels(0.025, 0.5, 8), linLevels(1, 8, 4), linLevels(1, 5, 5), linLevels(1, 5, 5),
		logLevels(1e-6, 1e-1, 6), linLevels(2, 10, 5), linLevels(2, 10, 5), linLevels(2, 10, 5)}
}

// drawCells is a subsampled pool: n cells drawn at random, in draw order.
func drawCells(g *Grid, n int) []int64 {
	rng := rand.New(rand.NewSource(1))
	cells := make([]int64, n)
	for i := range cells {
		cells[i] = rng.Int63n(int64(g.Cells()))
	}
	return cells
}

// drawnPools are the subsampled pools of the service workloads and of the
// paper-scale exploration: a PoolCap-5000 draw of the dbms space after the
// bootstrap (n = 100) and after four rounds (n = 260); KFusion's 60 000-cell
// draw after a 48-sample bootstrap and two 16-sample rounds (n = 48, 80), at
// n = 300, and at the paper's budget (n = 3000), whose trees are wide enough
// that PredictCells walks them.
var drawnPools = []struct {
	name   string
	levels func() [][]float64
	n      int // training rows
	cells  int
	walks  bool // the forest is too wide for leaf bitmasks
}{
	{"dbms/n=100", dbmsGrid, 100, 5000, false},
	{"dbms/n=260", dbmsGrid, 260, 5000, false},
	{"kfusion/n=48", kfusionGrid, 48, 60_000, false},
	{"kfusion/n=80", kfusionGrid, 80, 60_000, false},
	{"kfusion/n=300", kfusionGrid, 300, 60_000, false},
	{"kfusion/n=3000", kfusionGrid, 3000, 60_000, true},
}

func TestDrawnPoolKernels(t *testing.T) {
	// The service workloads' forests are scored by leaf bitmasks; the
	// paper-scale one is walked.
	for _, p := range drawnPools {
		f := fitOnGrid(t, p.levels(), p.n, Options{Trees: 16, Seed: 1})
		if walks := f.leafWords() > cellsMaskWords; walks != p.walks {
			t.Errorf("%s: widest tree spans %d words; PredictCells walks = %v, want %v", p.name, f.leafWords(), walks, p.walks)
		}
	}
}

// BenchmarkPredictCells and BenchmarkPredictFlatDrawn predict the same
// randomly drawn rows with the same 16-tree forests: ranks decoded from the
// cell indices against already-encoded float rows (the flat side is not
// charged its encoding). ns/row-tree is the time of one tree walk.
func BenchmarkPredictCells(b *testing.B) {
	for _, p := range drawnPools {
		b.Run(p.name, func(b *testing.B) {
			f := fitOnGrid(b, p.levels(), p.n, Options{Trees: 16, Seed: 1})
			g, err := NewGrid(p.levels())
			if err != nil {
				b.Fatal(err)
			}
			cells := drawCells(g, p.cells)
			out := make([]float64, len(cells))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.PredictCells(g, cells, out, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cells)*16), "ns/row-tree")
			b.ReportMetric(float64(f.leafWords()), "leaf-words")
		})
	}
}

func BenchmarkPredictFlatDrawn(b *testing.B) {
	for _, p := range drawnPools {
		b.Run(p.name, func(b *testing.B) {
			levels := p.levels()
			f := fitOnGrid(b, levels, p.n, Options{Trees: 16, Seed: 1})
			g, err := NewGrid(levels)
			if err != nil {
				b.Fatal(err)
			}
			cells := drawCells(g, p.cells)
			flat := cellRows(levels, cells)
			out := make([]float64, len(cells))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.PredictFlat(flat, len(levels), out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cells)*16), "ns/row-tree")
		})
	}
}
