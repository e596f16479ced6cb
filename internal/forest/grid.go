package forest

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

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
	rank  [][]int32   // rank[f][l]: sorted position k of the level declared l-th
	dense bool        // the last feature's levels were declared ascending: offs[last][k] == k
	cells int
}

// NewGrid builds the grid whose feature f takes the encoded values
// levels[f], in declared order. It returns an error if there are no
// features, a feature has no levels or more than math.MaxInt32 of them, or
// the cell count overflows int.
func NewGrid(levels [][]float64) (*Grid, error) {
	if len(levels) == 0 {
		return nil, errors.New("forest: grid with no features")
	}
	g := &Grid{
		vals:  make([][]float64, len(levels)),
		offs:  make([][]int, len(levels)),
		rank:  make([][]int32, len(levels)),
		cells: 1,
	}
	for f := len(levels) - 1; f >= 0; f-- {
		n := len(levels[f])
		if n == 0 {
			return nil, fmt.Errorf("forest: grid feature %d has no levels", f)
		}
		if n > math.MaxInt32 {
			return nil, fmt.Errorf("forest: grid feature %d has %d levels, more than a rank holds", f, n)
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
		g.rank[f] = make([]int32, n)
		for k, l := range order {
			g.vals[f][k] = lv[l]
			g.offs[f][k] = l * stride
			g.rank[f][l] = int32(k)
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

// passing returns the first sorted position in [lo, hi) of feature ft whose
// level fails `value <= thresh`; the positions before it pass. NaN levels
// sort last and fail every test, so the passing levels are always a prefix.
func (g *Grid) passing(ft, lo, hi int, thresh float64) int {
	vals := g.vals[ft]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vals[mid] <= thresh {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

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
	a := w.g.passing(int(ft), lo, hi, w.t.thresh[j])
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

// cellNode is a tree node as PredictCells walks it: the float test
// `x[feat] <= thresh` restated on sorted-level ranks, and both children in
// one 16-byte record so a step is one load and one select. A leaf tests
// nothing and points at itself with both children.
type cellNode struct {
	feat  int32
	cut   int32    // last sorted rank of feat that goes left; -1 when none does
	child [2]int32 // left, right: positions in the packed node array
}

const (
	// cellsWidth is how many rows descend a tree together: their loads are
	// independent, so the walk is bound by throughput rather than by the
	// latency of one row's load → compare → next-node chain.
	cellsWidth = 8
	// cellsBlock is the rank-scratch budget of one worker, in ranks (16 KiB):
	// a block of rows is decoded once and then walked by every tree while it
	// and the tree's nodes sit in cache.
	cellsBlock = 1 << 12
)

// packCells lays the forest out for PredictCells over g: every tree's nodes
// in one array (children as positions in it, roots[t] the root of tree t)
// with each threshold replaced by its cut in g's sorted levels, and the
// node values beside them.
func (f *Forest) packCells(g *Grid) (nodes []cellNode, value []float64, roots []int32) {
	total := 0
	for _, t := range f.trees {
		total += len(t.feature)
	}
	nodes = make([]cellNode, 0, total)
	value = make([]float64, 0, total)
	roots = make([]int32, len(f.trees))
	for ti, t := range f.trees {
		base := int32(len(nodes))
		roots[ti] = base
		for j, ft := range t.feature {
			self := base + int32(j)
			n := cellNode{child: [2]int32{self, self}}
			if ft >= 0 {
				n.feat = ft
				n.cut = int32(g.passing(int(ft), 0, len(g.vals[ft]), t.thresh[j])) - 1
				n.child = [2]int32{base + t.left[j], base + t.right[j]}
			}
			nodes = append(nodes, n)
		}
		value = append(value, t.value...)
	}
	return nodes, value, roots
}

// PredictCells writes the forest's prediction for grid cell cells[i] into
// out[i]: the pool kernel for a design space too large to sweep whole, whose
// pool is a fresh draw of cells every round. Cells may repeat and come in any
// order. No row is ever encoded: a node test `x[ft] <= thresh` is restated on
// the sorted levels of ft, whose ranks above the node's cut go right, which
// is the float test's outcome on every level — NaN levels sort last and go
// right, as they do there.
//
// Two kernels score a cell, chosen by the forest alone: by the leaf count of
// its widest tree, in 64-bit words (leafWords).
//
//   - Up to cellsMaskWords words, leaf bitmasks (packMasks, leafMasks.score;
//     the QuickScorer scheme of Lucchese et al., SIGIR 2015). Each tree's
//     leaves are numbered left to right. A node whose test sends a rank
//     right rules out every leaf of its left subtree, so the mask of (tree,
//     feature, rank) keeps the leaves that no node of that tree on that
//     feature rules out. A cell's leaf in a tree is the lowest set bit of the
//     AND of its features' masks. Proof sketch, for the exit leaf e: e
//     survives, because a node that rules e out has e in its left subtree,
//     so it lies on e's path, where the cell went left; and every leaf l left
//     of e is ruled out, by the deepest common ancestor of l and e, which has
//     l on its left and e on its right, so the cell went right there.
//   - Wider, the rank walk (packCells, descend): a cell index decodes to one
//     sorted-level rank per feature, and rows descend cellsWidth at a time,
//     picking the next node with a select (child[rank > cut]) instead of a
//     branch: on randomly drawn rows the branch of predictFlatRange is
//     mispredicted at most levels, and that, not the work, is what its walk
//     costs.
//
// Either way every row starts at 0, receives tree 0..T-1's leaf value in
// that order and is divided once, so the result is bit-identical to
// PredictFlat over the encoded rows of the same cells, and to
// PredictGrid's out[cells[i]].
//
// Up to workers goroutines share the rows (0 = GOMAXPROCS). It panics if g
// and the forest disagree on the feature count, out is shorter than cells,
// or a cell lies outside [0, g.Cells()).
func (f *Forest) PredictCells(g *Grid, cells []int64, out []float64, workers int) {
	d := g.Dim()
	if d != f.nFeatures {
		panic(fmt.Sprintf("forest: PredictCells over %d features, forest fitted on %d", d, f.nFeatures))
	}
	if len(out) < len(cells) {
		panic(fmt.Sprintf("forest: PredictCells out length %d for %d cells", len(out), len(cells)))
	}
	// Checked here, not while decoding: a panic on a worker goroutine could
	// not be recovered by the caller.
	for i, c := range cells {
		if uint64(c) >= uint64(g.cells) {
			panic(fmt.Sprintf("forest: PredictCells cell %d at position %d outside a grid of %d cells", c, i, g.cells))
		}
	}
	f.predictCells(g, cells, out, workers, f.leafWords() <= cellsMaskWords)
}

// cellsMaskWords is the widest tree, in 64-bit words of leaves, that
// PredictCells still scores by leaf bitmasks. A row's mask work grows with
// the word count and a walk's only with the depth, so past some width the
// walk wins. Measured on one core of a 2-vCPU Xeon VM, 16-tree forests on
// the dbms and KFusion grids cut to a given width, medians of six (walk
// time over mask time): 3.1 and 2.5 at 1 word, 1.7–1.9 at 2, 1.5–1.9 at 3,
// 1.3–1.5 at 4, 1.2 at 5, 1.1–1.3 at 6, 0.8–0.9 at 8 and 0.7–0.8 at 12.
// The paper-scale KFusion budget (n = 3000) grows trees of 12–17 words.
const cellsMaskWords = 5

// leafWords returns the leaf count of the forest's widest tree in 64-bit
// words.
func (f *Forest) leafWords() int {
	most := 0
	for _, t := range f.trees {
		leaves := 0
		for _, ft := range t.feature {
			if ft < 0 {
				leaves++
			}
		}
		most = max(most, leaves)
	}
	return (most + 63) / 64
}

// predictCells is PredictCells past its checks, with the kernel named:
// masks scores by leaf bitmasks, else the forest is walked.
func (f *Forest) predictCells(g *Grid, cells []int64, out []float64, workers int, masks bool) {
	nt := float64(len(f.trees))
	if masks {
		m := f.packMasks(g)
		par.ForChunkedWorkers(len(cells), workers, func(lo, hi int) {
			m.score(cells[lo:hi], out[lo:hi], nt)
		})
		maskPool.Put(m)
		return
	}
	d := g.Dim()
	nodes, value, roots := f.packCells(g)
	rows := max(cellsWidth, cellsBlock/d&^(cellsWidth-1))
	par.ForChunkedWorkers(len(cells), workers, func(lo, hi int) {
		ranks := make([]int32, rows*d)
		sum := make([]float64, rows)
		for ; lo < hi; lo += rows {
			block := cells[lo:min(lo+rows, hi)]
			// Whole groups only: the rows past the block keep whatever ranks
			// an earlier block left there (or the zeros of a fresh scratch),
			// which are valid ranks, and their sums are never read.
			padded := (len(block) + cellsWidth - 1) &^ (cellsWidth - 1)
			g.decodeRanks(block, ranks)
			clear(sum[:padded])
			for _, root := range roots {
				descend(nodes, value, root, ranks[:padded*d], d, sum)
			}
			for i := range block {
				out[lo+i] = sum[i] / nt
			}
		}
	})
}

// leafMasks is a forest laid out for scoring by leaf bitmasks over one grid.
// A mask is a run of lanes, tree t's leaves in lanes [t·words, (t+1)·words),
// bit i for its i-th leaf from the left; runs are padded with all-ones lanes
// to whole blocks of maskLanes. The features are cut into groups of adjacent
// ones (maskGroupCells), and a group's table holds one mask per combination
// of its levels — the AND of its features' masks — so a row reads one
// mixed-radix digit and one mask per group rather than per feature. Layouts
// are pooled (maskPool) with their buffers, so a round's scoring reuses the
// last round's tables instead of allocating them again; the leaves entries
// past a tree's last leaf keep stale values, which no score reads.
type leafMasks struct {
	words  int
	trees  int
	run    int       // lanes per mask: trees×words rounded up to maskLanes
	size   []int     // size[gi]: level combinations of group gi, its digit's radix
	slot   []int     // slot[gi]: the mask of group gi's digit 0
	masks  []uint64  // (Σ size) masks
	leaves []float64 // leaves[64·lane + bit]: the value of the leaf of that bit

	ints []int    // backing of size, slot and packMasks' per-feature scratch
	feat []uint64 // packMasks' per-feature masks
}

var maskPool = sync.Pool{New: func() any { return new(leafMasks) }}

// sized returns s with length n, reallocated only when its capacity is
// short; the contents are whatever s held.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

const (
	// maskLanes is how many mask words a row ANDs across its groups at once,
	// in registers (andMasks).
	maskLanes = 4
	// maskGroupCells caps the level combinations of a feature group (a
	// single feature with more levels is a group of its own), which bounds
	// the tables at maskGroupCells masks per group: the KFusion and dbms
	// grids, 9 and 7 features, become 3 groups each.
	maskGroupCells = 256
	// maskStackLanes is the lane count up to which a worker keeps a row's
	// ANDed masks on the goroutine stack (32 trees of 4 words); its group
	// offsets stay there up to gridStackDim groups.
	maskStackLanes = 128
)

// packMasks lays the forest out for leafMasks.score over g, in a layout
// from maskPool that the caller puts back when it has scored.
func (f *Forest) packMasks(g *Grid) *leafMasks {
	d, nt, words := len(g.vals), len(f.trees), f.leafWords()
	m := maskPool.Get().(*leafMasks)
	m.words, m.trees, m.run = words, nt, (nt*words+maskLanes-1)&^(maskLanes-1)

	// Each feature's masks by sorted rank: tree t's leaves that none of its
	// nodes on that feature rules out for that rank.
	m.ints = sized(m.ints, 4*d)
	ints := m.ints
	fslot := ints[:d:d]
	lead := ints[d : d : 2*d] // lead[gi]: group gi's first feature
	m.size, m.slot = ints[2*d:2*d:3*d], ints[3*d:3*d:4*d]
	ranks := 0
	for ft, v := range g.vals {
		fslot[ft] = ranks
		ranks += len(v)
	}
	m.feat = sized(m.feat, ranks*m.run)
	feat := m.feat
	for i := range feat {
		feat[i] = ^uint64(0)
	}
	m.leaves = sized(m.leaves, 64*nt*words)
	for ti, t := range f.trees {
		m.number(g, feat, fslot, t, ti, 0, 0)
	}

	// Adjacent features grouped while their level combinations stay under
	// maskGroupCells; group gi spans features [lead[gi], lead[gi+1]).
	for ft, v := range g.vals {
		if gi := len(m.size) - 1; gi >= 0 && m.size[gi]*len(v) <= maskGroupCells {
			m.size[gi] *= len(v)
			continue
		}
		lead = append(lead, ft)
		m.size = append(m.size, len(v))
	}
	total := 0
	for _, size := range m.size {
		m.slot = append(m.slot, total)
		total += size
	}
	m.masks = sized(m.masks, total*m.run)
	for gi, size := range m.size {
		hi := d
		if gi+1 < len(lead) {
			hi = lead[gi+1]
		}
		for v := 0; v < size; v++ {
			dst := m.masks[(m.slot[gi]+v)*m.run:][:m.run]
			for i := range dst {
				dst[i] = ^uint64(0)
			}
			rem := v
			for ft := hi - 1; ft >= lead[gi]; ft-- {
				rk := g.rank[ft]
				src := feat[(fslot[ft]+int(rk[rem%len(rk)]))*m.run:][:m.run]
				rem /= len(rk)
				for i := range dst {
					dst[i] &= src[i]
				}
			}
		}
	}
	return m
}

// number numbers the leaves of tree t's subtree at j left to right, from
// leaf lo on, stores their values in m.leaves, and returns the next number.
// Each node clears its left subtree's leaves from the feature masks (feat,
// at fslot[feature] + sorted rank) of the ranks its test sends right: those
// above its cut.
func (m *leafMasks) number(g *Grid, feat []uint64, fslot []int, t *tree, ti int, j int32, lo int) int {
	ft := t.feature[j]
	if ft < 0 {
		m.leaves[ti*m.words<<6+lo] = t.value[j]
		return lo + 1
	}
	hi := m.number(g, feat, fslot, t, ti, t.left[j], lo)
	next := m.number(g, feat, fslot, t, ti, t.right[j], hi)
	n := len(g.vals[ft])
	for r := g.passing(int(ft), 0, n, t.thresh[j]); r < n; r++ {
		mask := feat[(fslot[ft]+r)*m.run+ti*m.words:][:m.words]
		for b := lo; b < hi; b++ {
			mask[b>>6] &^= 1 << (b & 63)
		}
	}
	return next
}

// score writes to out[i] the prediction for cell cells[i]: the sum, over
// trees in order, of the leaf values the cell exits at, divided by nt.
func (m *leafMasks) score(cells []int64, out []float64, nt float64) {
	var offStack [gridStackDim]int
	var accStack [maskStackLanes]uint64
	offs, acc := offStack[:], accStack[:]
	if len(m.size) > len(offs) {
		offs = make([]int, len(m.size))
	}
	if m.run > len(acc) {
		acc = make([]uint64, m.run)
	}
	offs, acc = offs[:len(m.size)], acc[:m.run]
	for i, c := range cells {
		rem := uint64(c)
		for gi := len(offs) - 1; gi >= 0; gi-- {
			n := uint64(m.size[gi])
			offs[gi] = (m.slot[gi] + int(rem%n)) * m.run
			rem /= n
		}
		andMasks(acc, m.masks, offs)
		s := 0.0
		for t := 0; t < m.trees; t++ {
			w := t * m.words
			for acc[w] == 0 {
				w++
			}
			s += m.leaves[w<<6+bits.TrailingZeros64(acc[w])]
		}
		out[i] = s / nt
	}
}

// andMasks writes to acc the AND of the masks at offs, maskLanes lanes at a
// time. It is a function of its own so that its accumulators are allocated
// registers: inlined into score's loop they were kept on the stack.
//
//go:noinline
func andMasks(acc, masks []uint64, offs []int) {
	for k := 0; k+maskLanes <= len(acc); k += maskLanes {
		a0, a1, a2, a3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
		for _, o := range offs {
			w := masks[o+k : o+k+maskLanes : o+k+maskLanes]
			a0, a1, a2, a3 = a0&w[0], a1&w[1], a2&w[2], a3&w[3]
		}
		a := acc[k : k+maskLanes : k+maskLanes]
		a[0], a[1], a[2], a[3] = a0, a1, a2, a3
	}
}

// decodeRanks writes, for each cell, the sorted-level rank of every feature
// into ranks, row-major: the mixed-radix digits of the cell index, feature 0
// most significant, each mapped from declared position to sorted position.
func (g *Grid) decodeRanks(cells []int64, ranks []int32) {
	d := len(g.rank)
	for i, c := range cells {
		row := ranks[i*d : (i+1)*d]
		rem := uint64(c)
		for ft := d - 1; ft >= 0; ft-- {
			rk := g.rank[ft]
			n := uint64(len(rk))
			row[ft] = rk[rem%n]
			rem /= n
		}
	}
}

// next is the node a row of ranks moves to from n: cut - rank is negative
// exactly when the rank goes right, so its sign bit picks the child.
func (n *cellNode) next(row []int32) int32 {
	return n.child[uint32(n.cut-row[n.feat])>>31]
}

// descend adds the value of the leaf each row of ranks (d ranks per row, a
// whole number of cellsWidth groups) reaches from root to that row's sum. A
// group stops when no row moved — leaves point at themselves — so the only
// data-dependent branch is taken once per group, not once per level per row.
// The rows of a group are spelled out so their node positions stay in
// registers; an array of them, which lives in memory, measured 40 % slower.
func descend(nodes []cellNode, value []float64, root int32, ranks []int32, d int, sum []float64) {
	for r := 0; r*d < len(ranks); r += cellsWidth {
		r0, r1, r2, r3 := ranks[r*d:(r+1)*d], ranks[(r+1)*d:(r+2)*d], ranks[(r+2)*d:(r+3)*d], ranks[(r+3)*d:(r+4)*d]
		r4, r5, r6, r7 := ranks[(r+4)*d:(r+5)*d], ranks[(r+5)*d:(r+6)*d], ranks[(r+6)*d:(r+7)*d], ranks[(r+7)*d:(r+8)*d]
		j0, j1, j2, j3, j4, j5, j6, j7 := root, root, root, root, root, root, root, root
		for {
			k0, k1, k2, k3 := nodes[j0].next(r0), nodes[j1].next(r1), nodes[j2].next(r2), nodes[j3].next(r3)
			k4, k5, k6, k7 := nodes[j4].next(r4), nodes[j5].next(r5), nodes[j6].next(r6), nodes[j7].next(r7)
			if (k0^j0)|(k1^j1)|(k2^j2)|(k3^j3)|(k4^j4)|(k5^j5)|(k6^j6)|(k7^j7) == 0 {
				break
			}
			j0, j1, j2, j3, j4, j5, j6, j7 = k0, k1, k2, k3, k4, k5, k6, k7
		}
		s := sum[r : r+cellsWidth : r+cellsWidth]
		s[0] += value[j0]
		s[1] += value[j1]
		s[2] += value[j2]
		s[3] += value[j3]
		s[4] += value[j4]
		s[5] += value[j5]
		s[6] += value[j6]
		s[7] += value[j7]
	}
}
