package forest

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/par"
)

// Grid describes a prediction pool that is a whole Cartesian product of
// per-feature level lists — every configuration of an enumerable design
// space. Cell i is the mixed-radix decoding of i with feature 0 the most
// significant digit, the order param.Space.AtIndex uses, so out[i] of
// PredictGrid is the prediction for design-space index i.
//
// Each feature's levels are kept sorted by encoded value (NaN last). A tree
// node's test `x <= thresh` then always cuts a contiguous run of sorted
// positions into a prefix and a suffix, whatever order the levels were
// declared in, so the set of cells that reaches a node is a box described by
// one [lo, hi) range per feature and the walk needs no per-node level lists.
type Grid struct {
	vals  [][]float64 // vals[f][k]: k-th smallest encoded level of feature f
	offs  [][]int     // offs[f][k]: cell-index offset of that level (declared position × stride)
	dense bool        // the last feature's levels were declared ascending: offs[last][k] == k
	cells int
}

// NewGrid builds the grid whose feature f takes the encoded values
// levels[f], in declared order. It returns an error if there are no
// features, a feature has no levels, or the cell count overflows int.
func NewGrid(levels [][]float64) (*Grid, error) {
	if len(levels) == 0 {
		return nil, errors.New("forest: grid with no features")
	}
	g := &Grid{
		vals:  make([][]float64, len(levels)),
		offs:  make([][]int, len(levels)),
		cells: 1,
	}
	for f := len(levels) - 1; f >= 0; f-- {
		n := len(levels[f])
		if n == 0 {
			return nil, fmt.Errorf("forest: grid feature %d has no levels", f)
		}
		if g.cells > math.MaxInt/n {
			return nil, errors.New("forest: grid cell count overflows int")
		}
		stride := g.cells
		g.cells *= n

		order := make([]int, n)
		for k := range order {
			order[k] = k
		}
		lv := levels[f]
		// Ascending with NaN last: NaN fails every `<=` test, so the levels
		// passing a node's test must stay a prefix. cmp.Compare puts NaN
		// first, hence the negated operands compared the other way round.
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(-lv[b], -lv[a]) })
		g.vals[f] = make([]float64, n)
		g.offs[f] = make([]int, n)
		for k, l := range order {
			g.vals[f][k] = lv[l]
			g.offs[f][k] = l * stride
		}
		if f == len(levels)-1 {
			g.dense = slices.IsSorted(order)
		}
	}
	return g, nil
}

// Cells returns the number of grid cells (the product of the level counts).
func (g *Grid) Cells() int { return g.cells }

// Dim returns the number of features.
func (g *Grid) Dim() int { return len(g.vals) }

// gridWalk is the per-goroutine state of one grid sweep: the box of sorted
// level positions reaching the current tree node.
type gridWalk struct {
	g      *Grid
	t      *tree
	out    []float64
	lo, hi []int // per-feature [lo, hi) range of sorted positions
}

// gridStackDim is the feature count up to which a sweep keeps its box on the
// goroutine stack; wider grids pay two small allocations per worker.
const gridStackDim = 16

// PredictGrid writes the forest's prediction for every cell of g into
// out[:g.Cells()]. A tree partitions the grid into axis-aligned boxes, so
// instead of walking root to leaf once per cell, each tree is walked once,
// carrying the box that reaches each node, and a leaf adds its value to every
// cell of its box: O(trees·cells + trees·nodes·log levels) against the flat
// kernel's O(trees·cells·depth). Every cell still starts at 0, receives tree
// 0..T-1 in that order and is divided once at the end, so the result is
// bit-identical to PredictFlat over the encoded rows of the same cells.
//
// Up to workers goroutines share the sweep (0 = GOMAXPROCS). They divide
// slabs of the leading features — as many leading features as it takes to
// have a slab per worker, so a Boolean first feature does not cap the
// parallelism at two — and therefore write disjoint cells.
func (f *Forest) PredictGrid(g *Grid, out []float64, workers int) {
	d := g.Dim()
	if d != f.nFeatures {
		panic(fmt.Sprintf("forest: PredictGrid over %d features, forest fitted on %d", d, f.nFeatures))
	}
	if len(out) < g.cells {
		panic(fmt.Sprintf("forest: PredictGrid out length %d for %d cells", len(out), g.cells))
	}
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	out = out[:g.cells]
	clear(out)

	// Flatten the sorted positions of the first `lead` features into one
	// slab index; each worker takes a contiguous range of it.
	lead, slabs := 0, 1
	for lead < d && (slabs < workers || lead == 0) {
		slabs *= len(g.vals[lead])
		lead++
	}
	par.ForChunkedWorkers(slabs, workers, func(sLo, sHi int) {
		f.sweepSlabs(g, out, lead, sLo, sHi)
	})

	nt := float64(len(f.trees))
	par.ForChunkedWorkers(g.cells, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] /= nt
		}
	})
}

// sweepSlabs adds every tree's leaf values, in tree order, to the cells of
// slabs [sLo, sHi) of the first lead features. A slab range is a run of
// boxes: the features before the last leading one pinned to one position
// each, the last leading one spanning a range, the rest whole.
func (f *Forest) sweepSlabs(g *Grid, out []float64, lead, sLo, sHi int) {
	var stack [2 * gridStackDim]int
	box, d := stack[:], g.Dim()
	if 2*d > len(box) {
		box = make([]int, 2*d)
	}
	w := gridWalk{g: g, out: out, lo: box[:d], hi: box[d : 2*d]}
	for ft, v := range g.vals {
		w.lo[ft], w.hi[ft] = 0, len(v)
	}
	last := lead - 1
	nLast := len(g.vals[last])
	for s := sLo; s < sHi; {
		q, a := s/nLast, s%nLast
		b := min(nLast, a+sHi-s)
		for ft := last - 1; ft >= 0; ft-- {
			n := len(g.vals[ft])
			w.lo[ft], w.hi[ft] = q%n, q%n+1
			q /= n
		}
		w.lo[last], w.hi[last] = a, b
		for _, t := range f.trees {
			w.t = t
			w.node(0)
		}
		s += b - a
	}
}

// node sweeps the subtree rooted at j over the current box. An internal node
// cuts its feature's range where the sorted levels stop passing
// `value <= thresh` and descends into each non-empty side; a leaf fills.
func (w *gridWalk) node(j int32) {
	ft := w.t.feature[j]
	if ft < 0 {
		w.fill(0, 0, w.t.value[j])
		return
	}
	lo, hi := w.lo[ft], w.hi[ft]
	vals, thresh := w.g.vals[ft], w.t.thresh[j]
	a, b := lo, hi
	for a < b {
		mid := int(uint(a+b) >> 1)
		if vals[mid] <= thresh {
			a = mid + 1
		} else {
			b = mid
		}
	}
	if a > lo {
		w.hi[ft] = a
		w.node(w.t.left[j])
		w.hi[ft] = hi
	}
	if a < hi {
		w.lo[ft] = a
		w.node(w.t.right[j])
		w.lo[ft] = lo
	}
}

// fill adds v to every cell of the current box, features ft.. still to
// choose, base the offset of the levels chosen so far. The last feature's
// cells are adjacent when its levels were declared ascending, so the
// innermost loop is then a contiguous run of out.
func (w *gridWalk) fill(ft, base int, v float64) {
	lo, hi := w.lo[ft], w.hi[ft]
	offs := w.g.offs[ft][lo:hi]
	last := len(w.lo) - 1
	switch {
	case ft == last-1 && w.g.dense:
		lo, hi = w.lo[last], w.hi[last]
		for _, o := range offs {
			row := w.out[base+o+lo : base+o+hi]
			for i := range row {
				row[i] += v
			}
		}
	case ft < last:
		for _, o := range offs {
			w.fill(ft+1, base+o, v)
		}
	case w.g.dense:
		row := w.out[base+lo : base+hi]
		for i := range row {
			row[i] += v
		}
	default:
		for _, o := range offs {
			w.out[base+o] += v
		}
	}
}
