// Package pareto implements the multi-objective machinery of HyperMapper:
// dominance tests, non-dominated (Pareto) filtering, front merging, the 2-D
// hypervolume indicator, and the selectors used for dynamic adaptation
// ("fastest configuration whose accuracy stays under the 5 cm limit").
//
// All objectives are minimized. Points carry the configuration index of the
// design space they came from so fronts can be mapped back to parameter
// settings.
package pareto

import (
	"cmp"
	"math"
	"slices"
)

// Point is one evaluated configuration: its design-space index and its
// objective vector (all objectives minimized).
type Point struct {
	ID   int64
	Objs []float64
}

// Dominates reports whether objective vector a Pareto-dominates b: a is no
// worse in every objective and strictly better in at least one. Vectors must
// have equal length.
func Dominates(a, b []float64) bool {
	strictly := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strictly = true
		}
	}
	return strictly
}

// Front returns the non-dominated subset of points. Duplicate objective
// vectors are kept once (the first occurrence by ID order wins). The result
// is sorted by the first objective, then the second, for deterministic
// output.
//
// A point with a NaN objective is never on a front: NaN compares false both
// ways, so such a point would dominate nothing, be dominated by nothing, and
// break the ordering the 2-objective sweep relies on; it is skipped. This is
// the filter's own contract only — keeping non-finite evaluator output out
// of Result.Samples and the training set (non-finite ⇒ Result.Invalid) is
// the engine's ingest contract and is not enforced here.
//
// A 2-objective fast path runs in O(n log n); the general k-objective path
// is the O(n²) pairwise filter, fine for the set sizes HyperMapper produces.
func Front(points []Point) []Point {
	return FrontInPlace(slices.Clone(points))
}

// FrontInPlace is Front, but it may reorder points instead of copying them.
// The active-learning loop uses it to filter 10⁵-point prediction pools
// without duplicating the pool slice every iteration; callers that need the
// input order preserved must use Front.
func FrontInPlace(points []Point) []Point {
	points = dropNaN(points)
	if len(points) == 0 {
		return nil
	}
	if len(points[0].Objs) == 2 {
		return front2DInPlace(points)
	}
	return frontKD(points)
}

// dropNaN moves every point with a NaN objective behind the others, which
// keep their order, and returns the NaN-free prefix.
func dropNaN(points []Point) []Point {
	kept := 0
	for i, p := range points {
		if slices.ContainsFunc(p.Objs, math.IsNaN) {
			continue
		}
		if i != kept {
			points[kept], points[i] = points[i], points[kept]
		}
		kept++
	}
	return points[:kept]
}

func front2D(points []Point) []Point {
	return front2DInPlace(dropNaN(slices.Clone(points)))
}

const (
	// prefilterMin is the input size from which the fronts discard dominated
	// points before sorting; below it the plain sort is as fast.
	prefilterMin = 4096
	// prefilterSample bounds the strided sample whose front does the
	// discarding.
	prefilterSample = 1024
)

// compare2D orders 2-objective points by (obj0, obj1, ID) — a total order on
// NaN-free points, since IDs break every tie.
func compare2D(a, b Point) int {
	if a.Objs[0] != b.Objs[0] {
		return cmp.Compare(a.Objs[0], b.Objs[0])
	}
	if a.Objs[1] != b.Objs[1] {
		return cmp.Compare(a.Objs[1], b.Objs[1])
	}
	return cmp.Compare(a.ID, b.ID)
}

// sweep2D appends to out the front of points sorted by compare2D: a point is
// non-dominated exactly when its obj1 strictly improves on everything before
// it. Duplicate objective vectors fail the strict test, so only the first
// occurrence (lowest ID) is kept. out may alias points.
func sweep2D(out, sorted []Point) []Point {
	for _, p := range sorted {
		if len(out) == 0 || p.Objs[1] < out[len(out)-1].Objs[1] {
			out = append(out, p)
		}
	}
	return out
}

// front2DInPlace sorts its NaN-free argument and sweeps it once. The sort is
// unstable but compare2D is a total order, so the output is deterministic;
// slices.SortFunc beats sort.Slice's reflection-based swaps by a wide margin
// on the 10⁵-point prediction pools. Large inputs are thinned first: nearly
// all of a prediction pool is dominated, and finding that out costs a binary
// search per point instead of that point's share of the sort.
func front2DInPlace(points []Point) []Point {
	if len(points) >= prefilterMin {
		points = prefilter2D(points)
	}
	slices.SortFunc(points, compare2D)
	return sweep2D(nil, points)
}

// staircase is the one prefilter of both fronts, Front's and
// ColumnCandidates': the front of an evenly strided sample of a pool's
// NaN-free 2-objective points, steps ascending in obj0 and strictly
// descending in obj1. A point a step strictly dominates is dominated by a
// sample point, hence (dominance is transitive) by a member of the pool's
// front, so dropping it leaves that front unchanged. A point that merely
// equals a step stays, so which of several equal vectors wins (the lowest ID)
// is still decided by the sort.
type staircase struct {
	step [prefilterSample][2]float64
	n    int // step[:n] is in use
	// last is the step that condemned the previous point. Pool neighbours
	// have similar objectives, so it is tried first; on the prediction pools
	// it condemns about 95 % of points without a search. Until a search
	// succeeds it is NaN, which condemns nothing.
	last [2]float64
}

// add puts a sample point on the staircase; build must follow the last add.
func (s *staircase) add(p0, p1 float64) {
	s.step[s.n] = [2]float64{p0, p1}
	s.n++
}

// build sorts the sample and keeps its front. With no sample the staircase
// has no step and condemns nothing.
func (s *staircase) build() {
	sample := s.step[:s.n]
	slices.SortFunc(sample, func(a, b [2]float64) int {
		if a[0] != b[0] {
			return cmp.Compare(a[0], b[0])
		}
		return cmp.Compare(a[1], b[1])
	})
	s.last = [2]float64{math.NaN(), math.NaN()}
	s.n = 0
	for _, p := range sample {
		if s.n == 0 || p[1] < s.step[s.n-1][1] {
			s.step[s.n] = p
			s.n++
		}
	}
}

// dominates reports whether a step strictly dominates the NaN-free point
// (p0, p1). The first test is deliberately small enough to inline: strictly
// better in obj0 and no worse in obj1 is strict dominance, and the cases it
// misses, ties in obj0 included, go to search.
func (s *staircase) dominates(p0, p1 float64) bool {
	return s.last[0] < p0 && s.last[1] <= p1 || s.search(p0, p1)
}

// search decides dominance by the decisive step: of the steps no worse than
// (p0, p1) in obj0, the last has the lowest obj1.
func (s *staircase) search(p0, p1 float64) bool {
	lo, hi := 0, s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.step[mid][0] <= p0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		if st := s.step[lo-1]; st[1] < p1 || (st[1] == p1 && st[0] < p0) {
			s.last = st
			return true
		}
	}
	return false
}

// prefilter2D moves behind the others, and cuts off, every NaN-free point a
// staircase over points strictly dominates.
func prefilter2D(points []Point) []Point {
	var stair staircase
	stride := (len(points) + prefilterSample - 1) / prefilterSample
	for i := 0; i < len(points); i += stride {
		stair.add(points[i].Objs[0], points[i].Objs[1])
	}
	stair.build()
	kept := 0
	for i, p := range points {
		if stair.dominates(p.Objs[0], p.Objs[1]) {
			continue
		}
		if i != kept {
			points[kept], points[i] = points[i], points[kept]
		}
		kept++
	}
	return points[:kept]
}

// ColumnCandidates appends to dst, in ascending order, the positions of a
// pool's points that can be on its front. The pool is stored
// objective-major, as a forest predicts it: point i's objective j is
// cols[j][rows[i]], or cols[j][i] when rows is nil. A point with a NaN
// objective is left out, and so, from prefilterMin points on, is every
// 2-objective point the staircase over the pool strictly dominates. So
// FrontInPlace over the candidates alone returns what it returns over the
// whole pool: no dropped point is a member, and with k ≠ 2 objectives, where
// no point is dropped for dominance, the candidates keep the pool order that
// decides which of several equal vectors wins.
func ColumnCandidates(dst []int, cols [][]float64, rows []int64) []int {
	if len(cols) == 0 {
		return dst
	}
	n := len(rows)
	if rows == nil {
		n = len(cols[0])
	}
	row := func(i int) int {
		if rows == nil {
			return i
		}
		return int(rows[i])
	}
	if len(cols) != 2 {
		for i := 0; i < n; i++ {
			r := row(i)
			if !slices.ContainsFunc(cols, func(c []float64) bool { return math.IsNaN(c[r]) }) {
				dst = append(dst, i)
			}
		}
		return dst
	}
	c0, c1 := cols[0], cols[1]
	var stair staircase
	if n >= prefilterMin {
		stride := (n + prefilterSample - 1) / prefilterSample
		for i := 0; i < n; i += stride {
			if p0, p1 := c0[row(i)], c1[row(i)]; !math.IsNaN(p0) && !math.IsNaN(p1) {
				stair.add(p0, p1)
			}
		}
	}
	stair.build()
	for i := 0; i < n; i++ {
		r := row(i)
		p0, p1 := c0[r], c1[r]
		if math.IsNaN(p0) || math.IsNaN(p1) || stair.dominates(p0, p1) {
			continue
		}
		dst = append(dst, i)
	}
	return dst
}

func frontKD(points []Point) []Point {
	var out []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if Dominates(q.Objs, p.Objs) {
				dominated = true
				break
			}
			// Duplicate objective vectors: keep only the first.
			if j < i && equalObjs(q.Objs, p.Objs) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b Point) int {
		for k := range a.Objs {
			if a.Objs[k] != b.Objs[k] {
				return cmp.Compare(a.Objs[k], b.Objs[k])
			}
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

func equalObjs(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Hypervolume2D returns the hypervolume indicator of a 2-objective front with
// respect to reference point ref (both objectives minimized; ref must be
// dominated by every front point for the result to be meaningful). Points at
// or beyond the reference contribute nothing.
func Hypervolume2D(front []Point, ref [2]float64) float64 {
	f := front2D(front)
	hv := 0.0
	prevX := ref[0]
	// front2D sorts ascending in obj0 and strictly descending in obj1; sweep
	// from the right (largest obj0) to accumulate rectangles.
	for i := len(f) - 1; i >= 0; i-- {
		p := f[i]
		x := math.Min(p.Objs[0], ref[0])
		y := math.Min(p.Objs[1], ref[1])
		w := prevX - x
		h := ref[1] - y
		if w > 0 && h > 0 {
			hv += float64(w * h) // rounded before it is added: never fused
		}
		if x < prevX {
			prevX = x
		}
	}
	return hv
}

// BestBy returns the point minimizing objective obj, and false if points is
// empty.
func BestBy(points []Point, obj int) (Point, bool) {
	if len(points) == 0 {
		return Point{}, false
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.Objs[obj] < best.Objs[obj] {
			best = p
		}
	}
	return best, true
}

// BestUnderConstraint returns the point minimizing objective obj among those
// with Objs[cObj] < bound — e.g. "fastest configuration with max ATE under
// 5 cm", the selection rule used for the crowd-sourced app and for dynamic
// adaptation. ok is false if no point satisfies the constraint.
func BestUnderConstraint(points []Point, obj, cObj int, bound float64) (best Point, ok bool) {
	for _, p := range points {
		if p.Objs[cObj] >= bound {
			continue
		}
		if !ok || p.Objs[obj] < best.Objs[obj] {
			best, ok = p, true
		}
	}
	return best, ok
}

// IDs returns the configuration IDs of points, in order.
func IDs(points []Point) []int64 {
	out := make([]int64, len(points))
	for i, p := range points {
		out[i] = p.ID
	}
	return out
}
