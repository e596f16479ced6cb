package main

import (
	"math"
	"slices"
)

// quantile returns the p-quantile of xs by the exclusive method of Python's
// statistics.quantiles, so a spread printed here is the spread the driver
// computes from the same values.
func quantile(xs []float64, p float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	pos := p*float64(n+1) - 1
	lo := min(max(int(math.Floor(pos)), 0), n-2)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is one or two outliers, not a tail.
const minBeyond = 10

// tailPercentile returns the highest of p95, p90 and p75 that n samples
// support, and 50 when they support none.
func tailPercentile(n int) int {
	for _, p := range []int{95, 90, 75} {
		if n*(100-p) >= minBeyond*100 {
			return p
		}
	}
	return 50
}

// blockTail is the tail of a workload's run times, taken block by block.
// times holds the runs in the order they were issued, and block consecutive
// runs repeat the workload's mix of inputs once (0: the runs are one block).
// The value is the median over the blocks of each block's tail percentile: a
// burst on the host lifts the tail of the block it lands in and leaves the
// median of the blocks where it was, where one percentile over all the runs
// would take it whole. A remainder shorter than a block, which only failed
// runs leave, is left out.
func blockTail(times []float64, block int) (value float64, percentile, blocks int) {
	if block <= 0 || block > len(times) {
		block = len(times)
	}
	percentile = tailPercentile(block)
	var tails []float64
	for ; block > 0 && len(times) >= block; times = times[block:] {
		tails = append(tails, quantile(times[:block], float64(percentile)/100))
	}
	return median(tails), percentile, len(tails)
}

// minForQuartiles is the sample count below which quartiles, and so a
// spread, are not computed.
const minForQuartiles = 8

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of one (metric, workload) pair. worse is how far
// b's median is on the wrong side of a's, as a share of a's median. Where
// a's own spread is known and wider than the bound the medians cannot settle
// it: the verdict then rests on whether the two sets of runs separate.
func judge(a, b []float64, lowerIsBetter bool, bound float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	worse = sign * (mb - ma) / math.Abs(ma)
	if len(a) >= minForQuartiles && spread(a) > bound {
		best, worst := slices.Min[[]float64], slices.Max[[]float64]
		if !lowerIsBetter {
			best, worst = worst, best
		}
		switch {
		case sign*(worst(b)-best(a)) < 0:
			return worse, verdictOK // every run of b beats every run of a
		case sign*(best(b)-worst(a)) > 0:
			return worse, verdictRegressed // every run of a beats every run of b
		}
		return worse, verdictUnresolved
	}
	if worse > bound {
		return worse, verdictRegressed
	}
	return worse, verdictOK
}
