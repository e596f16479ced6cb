// Package stats provides the small statistical toolbox used by the
// HyperMapper reproduction: moments, quantiles, and the Pearson and Spearman
// correlation coefficients used in the cross-device transfer analysis
// (paper §IV-D, following Roy et al. [43]).
package stats

import (
	"errors"
	"math"
	"slices"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	slices.Sort(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := float64(pos) - float64(lo) // pos rounded before lo is subtracted: never fused
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac), nil
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Pearson returns the Pearson linear correlation coefficient between xs and
// ys. It returns an error if the lengths differ or fewer than two samples are
// given; it returns 0 when either input has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy) // each product rounded before it is added: never fused
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns the Spearman rank correlation coefficient between xs and
// ys (Pearson correlation of the rank transforms, with average ranks for
// ties).
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based ranks of xs, assigning tied values the average
// of the ranks they span.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Unstable sort is fine: tied values receive the average rank of the
	// whole tie group below, so their relative order cannot matter.
	slices.SortFunc(idx, func(a, b int) int {
		if xs[a] != xs[b] {
			if xs[a] < xs[b] {
				return -1
			}
			return 1
		}
		return 0
	})
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64((float64(i) + float64(j)) / 2.0) // rounded before the + 1: never fused
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg + 1
		}
		i = j + 1
	}
	return ranks
}

// Histogram bins xs into nbins equal-width bins over [lo, hi] and returns
// the per-bin counts. Values outside [lo, hi] are clamped into the end bins.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	counts := make([]int, nbins)
	if nbins == 0 || hi <= lo {
		return counts
	}
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}
