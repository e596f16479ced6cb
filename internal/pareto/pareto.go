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
	// prefilterMin is the input size from which front2DInPlace discards
	// dominated points before sorting; below it the plain sort is as fast.
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

// prefilter2D moves behind the others, and cuts off, every point strictly
// dominated by the front of an evenly strided sample of points — a
// staircase ascending in obj0 and strictly descending in obj1. A removed
// point is dominated by a sample point, hence (dominance is transitive) by a
// member of the true front, so the front of what remains is the front of
// points. Points that merely equal a staircase step stay, so which of
// several equal vectors wins (the lowest ID) is still decided by the sort.
func prefilter2D(points []Point) []Point {
	var buf [prefilterSample]Point
	stride := (len(points) + prefilterSample - 1) / prefilterSample
	sample := buf[:0]
	for i := 0; i < len(points); i += stride {
		sample = append(sample, points[i])
	}
	slices.SortFunc(sample, compare2D)
	stair := sweep2D(sample[:0], sample)

	// Any step that strictly dominates p condemns it. Pool neighbours have
	// similar objectives, so the step that condemned the previous point is
	// tried first; only when it fails is the decisive one searched for: of
	// the steps no worse than p in obj0, the last has the lowest obj1.
	kept, hint := 0, 0
	for i, p := range points {
		p0, p1 := p.Objs[0], p.Objs[1]
		s := stair[hint].Objs
		if s[0] <= p0 && s[1] <= p1 && (s[0] < p0 || s[1] < p1) {
			continue
		}
		lo, hi := 0, len(stair)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if stair[mid].Objs[0] <= p0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			s = stair[lo-1].Objs
			if s[1] < p1 || (s[1] == p1 && s[0] < p0) {
				hint = lo - 1
				continue
			}
		}
		if i != kept {
			points[kept], points[i] = points[i], points[kept]
		}
		kept++
	}
	return points[:kept]
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
			hv += w * h
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
