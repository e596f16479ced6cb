package pareto

import (
	"cmp"
	"fmt"
	"slices"
)

// Hypervolume returns the hypervolume indicator of a front with any
// objective count k ≥ 1 with respect to reference point ref (len(ref) = k,
// all objectives minimized): the volume of the region dominated by the
// front and dominating ref. Points at or beyond the reference in any
// objective contribute nothing. For k = 2 it matches Hypervolume2D
// exactly; k = 1 degenerates to ref[0] minus the best value.
//
// The k ≥ 3 path is the classic "hypervolume by slicing objectives"
// recursion: sort by the last objective, sweep its slabs, and multiply
// each slab's thickness by the (k−1)-dimensional hypervolume of the points
// reaching it. O(n² log n) per level — exact, and comfortably fast for the
// front sizes the engine produces (the quality harness measures fronts of
// tens to hundreds of points). Every point's Objs must have length k; a
// mismatch panics, as it would in Dominates.
func Hypervolume(front []Point, ref []float64) float64 {
	k := len(ref)
	if k == 0 {
		panic("pareto: Hypervolume with an empty reference point")
	}
	// Drop points that fail to strictly improve on the reference in every
	// objective: their dominated region inside the reference box is empty.
	var pts []Point
	for _, p := range front {
		if len(p.Objs) != k {
			panic(fmt.Sprintf("pareto: point has %d objectives, reference has %d", len(p.Objs), k))
		}
		inside := true
		for j, r := range ref {
			if p.Objs[j] >= r {
				inside = false
				break
			}
		}
		if inside {
			pts = append(pts, p)
		}
	}
	return hvRec(pts, ref)
}

// hvRec computes the hypervolume of pts (all strictly inside the reference
// box) against ref; it tolerates dominated and duplicate points, which the
// slicing recursion naturally produces in its projections.
func hvRec(pts []Point, ref []float64) float64 {
	if len(pts) == 0 {
		return 0
	}
	k := len(ref)
	switch k {
	case 1:
		best := pts[0].Objs[0]
		for _, p := range pts[1:] {
			if p.Objs[0] < best {
				best = p.Objs[0]
			}
		}
		return ref[0] - best
	case 2:
		return Hypervolume2D(pts, [2]float64{ref[0], ref[1]})
	}
	// Slice along the last objective: ascending in obj[k-1], each slab
	// [z_i, z_{i+1}) is reached exactly by the points sorted before it.
	sorted := append([]Point(nil), pts...)
	slices.SortFunc(sorted, func(a, b Point) int {
		if a.Objs[k-1] != b.Objs[k-1] {
			return cmp.Compare(a.Objs[k-1], b.Objs[k-1])
		}
		return cmp.Compare(a.ID, b.ID)
	})
	proj := make([]Point, 0, len(sorted))
	hv := 0.0
	for i, p := range sorted {
		proj = append(proj, Point{ID: p.ID, Objs: p.Objs[:k-1]})
		next := ref[k-1]
		if i+1 < len(sorted) {
			next = sorted[i+1].Objs[k-1]
		}
		if thickness := next - p.Objs[k-1]; thickness > 0 {
			hv += float64(thickness * hvRec(proj, ref[:k-1])) // rounded before it is added: never fused
		}
	}
	return hv
}
