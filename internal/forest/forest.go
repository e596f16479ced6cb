// Package forest implements the randomized decision forests (Breiman-style
// regression random forests) that HyperMapper fits, one per objective, to
// predict performance metrics over the whole design space (paper §III-E).
//
// Go has no mature ML ecosystem, so the forests are built from scratch:
// CART variance-reduction trees, bootstrap bagging, per-node feature
// subsampling, out-of-bag error estimation and impurity-based feature
// importance (used for the paper's feature/metric correlation analysis).
// Training runs over a presorted column-major matrix (Columns) in the
// sklearn/XGBoost style: each feature's rows are argsorted once and kept
// sorted through splits by stable partitioning, so split search never
// sorts. Fitting and batch prediction parallelize across trees and across
// input chunks respectively, with all per-tree scratch pooled across trees,
// objectives, and active-learning refits. Prediction pools are cells of the
// design grid (Grid) and never encoded: the whole grid is predicted by
// box-fill (PredictGrid), a drawn subset by leaf bitmasks or, for wide
// trees, a branch-free walk on level ranks (PredictCells).
package forest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/par"
)

// Options configures forest training. The zero value selects the defaults
// documented on each field.
type Options struct {
	// Trees is the number of trees in the ensemble (default 32).
	Trees int
	// MaxDepth caps tree depth; 0 means unbounded.
	MaxDepth int
	// MinSamplesLeaf is the minimum samples in a leaf (default 2).
	MinSamplesLeaf int
	// MaxFeatures is the number of features considered per split;
	// 0 selects max(1, d/3), the standard regression-forest heuristic.
	MaxFeatures int
	// SampleRatio is the bootstrap sample size as a fraction of the
	// training set (default 1.0, drawn with replacement).
	SampleRatio float64
	// Seed makes training deterministic. Trees are seeded independently
	// from it, so results do not depend on scheduling.
	Seed int64
	// Workers bounds fitting/prediction parallelism; 0 = GOMAXPROCS.
	Workers int
	// Reference selects the legacy re-sorting tree builder (sort the node
	// segment per candidate feature per node) instead of the presorted
	// column-major fast path. Both produce byte-identical forests for the
	// same seed; the reference is retained as the equivalence baseline for
	// regression tests and as the benchmark comparison point.
	Reference bool
}

func (o Options) withDefaults(d int) Options {
	if o.Trees <= 0 {
		o.Trees = 32
	}
	if o.MinSamplesLeaf <= 0 {
		o.MinSamplesLeaf = 2
	}
	if o.MaxFeatures <= 0 {
		o.MaxFeatures = d / 3
		if o.MaxFeatures < 1 {
			o.MaxFeatures = 1
		}
	}
	if o.SampleRatio <= 0 || o.SampleRatio > 1 {
		o.SampleRatio = 1
	}
	if o.Workers <= 0 {
		o.Workers = par.MaxWorkers()
	}
	return o
}

// Forest is a fitted regression forest.
type Forest struct {
	trees      []*tree
	nFeatures  int
	opts       Options
	oobError   float64
	oobSamples int
	importance []float64
}

// fitScratch is the per-worker training state: the builder's index lists,
// partition buffers, node arrays, and the bag draw. One scratch serves every
// tree a worker grows, and the pool recycles it across fits — so steady-state
// active-learning refits allocate only the right-sized persistent trees.
type fitScratch struct {
	order    []int32 // bag draw (and the reference builder's node segment)
	cnt      []int32 // per-row bag multiplicity, zeroed again after each tree
	lists    []int32 // fast path: d presorted per-feature lists, flattened
	refSeg   []int32 // reference path: per-call sort buffer
	tmp      []int32 // stable-partition spill
	goesLeft []uint8
	featBuf  []int

	feature []int32
	thresh  []float64
	left    []int32
	right   []int32
	value   []float64
}

func (sc *fitScratch) ensure(n, d, bagSize int, reference bool) {
	if cap(sc.order) < bagSize {
		sc.order = make([]int32, bagSize)
	}
	sc.order = sc.order[:bagSize]
	if cap(sc.tmp) < bagSize {
		sc.tmp = make([]int32, bagSize)
	}
	sc.tmp = sc.tmp[:bagSize]
	if cap(sc.goesLeft) < n {
		sc.goesLeft = make([]uint8, n)
	}
	sc.goesLeft = sc.goesLeft[:n]
	if reference {
		if cap(sc.refSeg) < bagSize {
			sc.refSeg = make([]int32, bagSize)
		}
		sc.refSeg = sc.refSeg[:bagSize]
	} else {
		if cap(sc.cnt) < n {
			sc.cnt = make([]int32, n) // zeroed by make; kept zeroed after use
		}
		sc.cnt = sc.cnt[:n]
		// bagCopies entries of slack: the bag filter stores that many
		// copies of a row past the last list's end.
		if cap(sc.lists) < d*bagSize+bagCopies {
			sc.lists = make([]int32, d*bagSize+bagCopies)
		}
		sc.lists = sc.lists[:d*bagSize+bagCopies]
	}
}

// bagCopies is how many copies of each row the bag filter stores
// unconditionally; a row drawn more often than that (a Poisson(1) count
// exceeds 4 with probability 0.4 %) takes a short loop.
const bagCopies = 4

var scratchPool = sync.Pool{New: func() any { return new(fitScratch) }}

// fitBuffers is the per-fit aggregation state: per-tree out-of-bag
// predictions, bag-membership bitsets, and importance rows, kept as three
// block allocations (instead of four fresh slices per tree) and pooled
// across fits.
type fitBuffers struct {
	oobPred []float64 // Trees × n, filled only at out-of-bag positions
	bags    []uint64  // Trees × bagWords bitset of in-bag rows
	imp     []float64 // Trees × d per-tree importance rows
	oobSum  []float64 // n, aggregation scratch
	oobCnt  []int32   // n, aggregation scratch
}

func (fb *fitBuffers) ensure(trees, n, d, bagWords int) {
	if cap(fb.oobPred) < trees*n {
		fb.oobPred = make([]float64, trees*n)
	}
	fb.oobPred = fb.oobPred[:trees*n]
	if cap(fb.bags) < trees*bagWords {
		fb.bags = make([]uint64, trees*bagWords)
	}
	fb.bags = fb.bags[:trees*bagWords]
	if cap(fb.imp) < trees*d {
		fb.imp = make([]float64, trees*d)
	}
	fb.imp = fb.imp[:trees*d]
	if cap(fb.oobSum) < n {
		fb.oobSum = make([]float64, n)
	}
	fb.oobSum = fb.oobSum[:n]
	if cap(fb.oobCnt) < n {
		fb.oobCnt = make([]int32, n)
	}
	fb.oobCnt = fb.oobCnt[:n]
}

var bufPool = sync.Pool{New: func() any { return new(fitBuffers) }}

// Fit trains a forest on rows x (one feature vector per sample) and targets
// y. It returns an error on empty or inconsistent input. One-shot callers
// get the presorted fast path too; the active-learning loop instead keeps a
// shared Columns and calls Refit so the transpose and argsort amortize
// across iterations and objectives.
func Fit(x [][]float64, y []float64, opts Options) (*Forest, error) {
	if len(x) == 0 {
		return nil, errors.New("forest: no training samples")
	}
	c, err := ColumnsFromRows(x)
	if err != nil {
		return nil, err
	}
	return Refit(c, y, opts)
}

// Refit trains a forest over a presorted column matrix — the warm-started
// entry point of the active-learning loop: the caller appends each measured
// batch to one shared Columns (per-feature orders merge incrementally) and
// refits every objective's forest from it without re-sorting anything.
// Multiple Refit calls may run concurrently over the same Columns; the
// matrix is only read.
func Refit(c *Columns, y []float64, opts Options) (*Forest, error) {
	n := c.NumRows()
	if n == 0 {
		return nil, errors.New("forest: no training samples")
	}
	if len(y) != n {
		return nil, fmt.Errorf("forest: %d samples but %d targets", n, len(y))
	}
	d := c.Dim()
	if d == 0 {
		return nil, errors.New("forest: zero-dimensional features")
	}
	o := opts.withDefaults(d)

	f := &Forest{
		trees:      make([]*tree, o.Trees),
		nFeatures:  d,
		opts:       o,
		importance: make([]float64, d),
	}

	bootSize := int(float64(n) * o.SampleRatio)
	if bootSize < 1 {
		bootSize = 1
	}
	bagWords := (n + 63) / 64

	fb := bufPool.Get().(*fitBuffers)
	fb.ensure(o.Trees, n, d, bagWords)

	par.ForWorkersScratch(o.Trees, o.Workers,
		func() *fitScratch { return scratchPool.Get().(*fitScratch) },
		func(sc *fitScratch) { scratchPool.Put(sc) },
		func(sc *fitScratch, ti int) {
			rng := rand.New(rand.NewSource(o.Seed + int64(ti)*1_000_003 + 17))
			sc.ensure(n, d, bootSize, o.Reference)

			bag := fb.bags[ti*bagWords : (ti+1)*bagWords]
			for i := range bag {
				bag[i] = 0
			}
			for i := 0; i < bootSize; i++ {
				s := int32(rng.Intn(n))
				sc.order[i] = s
				bag[s>>6] |= 1 << (uint(s) & 63)
			}

			imp := fb.imp[ti*d : (ti+1)*d]
			for i := range imp {
				imp[i] = 0
			}
			b := &treeBuilder{
				cols:       c,
				y:          y,
				opts:       o,
				rng:        rng,
				reference:  o.Reference,
				bagSize:    bootSize,
				importance: imp,
				lists:      sc.lists,
				order:      sc.order,
				refSeg:     sc.refSeg,
				goesLeft:   sc.goesLeft,
				tmp:        sc.tmp,
				featBuf:    sc.featBuf,
				feature:    sc.feature,
				thresh:     sc.thresh,
				left:       sc.left,
				right:      sc.right,
				value:      sc.value,
			}
			if !o.Reference {
				// Filter the matrix's global per-feature orders down to the
				// bag (with multiplicity): each list stays sorted by
				// (value, row), duplicates adjacent. A multiplicity is
				// Poisson(1)-distributed, so a loop over it mispredicts;
				// instead bagCopies copies are stored and the cursor
				// advances by the multiplicity, which overwrites the
				// surplus. Copies past the list's end land in the next
				// list, written afterwards, or in the slack after the last.
				for _, s := range sc.order {
					sc.cnt[s]++
				}
				for fi := 0; fi < d; fi++ {
					dst := sc.lists[fi*bootSize:]
					pos := 0
					for _, row := range c.sort[fi] {
						m := int(sc.cnt[row])
						copies := dst[pos : pos+bagCopies]
						for k := range copies {
							copies[k] = row
						}
						for k := bagCopies; k < m; k++ {
							dst[pos+k] = row
						}
						pos += m
					}
				}
				for _, s := range sc.order {
					sc.cnt[s] = 0 // restore the all-zero invariant
				}
			}
			f.trees[ti] = b.grow()
			// Hand the (possibly grown) scratch buffers back for the
			// worker's next tree.
			sc.featBuf = b.featBuf
			sc.feature = b.feature
			sc.thresh = b.thresh
			sc.left = b.left
			sc.right = b.right
			sc.value = b.value

			// Out-of-bag predictions for this tree, straight off the columns.
			pred := fb.oobPred[ti*n : (ti+1)*n]
			for s := 0; s < n; s++ {
				if bag[s>>6]&(1<<(uint(s)&63)) == 0 {
					pred[s] = f.trees[ti].predictCols(c, s)
				}
			}
		})

	// Aggregate OOB error and importance sequentially in tree order:
	// deterministic regardless of worker count or scheduling.
	oobSum, oobCnt := fb.oobSum, fb.oobCnt
	for s := 0; s < n; s++ {
		oobSum[s] = 0
		oobCnt[s] = 0
	}
	for ti := 0; ti < o.Trees; ti++ {
		imp := fb.imp[ti*d : (ti+1)*d]
		for i := range f.importance {
			f.importance[i] += imp[i]
		}
		bag := fb.bags[ti*bagWords : (ti+1)*bagWords]
		pred := fb.oobPred[ti*n : (ti+1)*n]
		for s := 0; s < n; s++ {
			if bag[s>>6]&(1<<(uint(s)&63)) == 0 {
				oobSum[s] += pred[s]
				oobCnt[s]++
			}
		}
	}
	totImp := 0.0
	for _, v := range f.importance {
		totImp += v
	}
	if totImp > 0 {
		for i := range f.importance {
			f.importance[i] /= totImp
		}
	}
	sse, cnt := 0.0, 0
	for s := 0; s < n; s++ {
		if oobCnt[s] > 0 {
			e := y[s] - oobSum[s]/float64(oobCnt[s])
			sse += float64(e * e) // rounded before it is added: never fused
			cnt++
		}
	}
	f.oobSamples = cnt
	if cnt > 0 {
		f.oobError = sse / float64(cnt)
	} else {
		// No sample was ever out of bag (tiny training sets): the estimate
		// is undefined, not zero — zero would read as a perfect fit.
		f.oobError = math.NaN()
	}
	bufPool.Put(fb)
	return f, nil
}

// OOBError returns the out-of-bag mean squared error estimated during
// fitting. It is NaN when no sample was out of bag (OOBSamples() == 0),
// which on tiny training sets is the honest answer — a literal 0 would be
// indistinguishable from a perfect fit.
func (f *Forest) OOBError() float64 { return f.oobError }

// OOBSamples returns how many training samples the out-of-bag estimate
// aggregates over (0 means OOBError is NaN/undefined).
func (f *Forest) OOBSamples() int { return f.oobSamples }

// FeatureImportance returns the normalized impurity-decrease importance of
// each feature (sums to 1 when any split occurred).
func (f *Forest) FeatureImportance() []float64 {
	return append([]float64(nil), f.importance...)
}

// Predict returns the forest prediction (mean of tree predictions) for one
// feature vector.
func (f *Forest) Predict(x []float64) float64 {
	sum := 0.0
	for _, t := range f.trees {
		sum += t.predict(x)
	}
	return sum / float64(len(f.trees))
}

// PredictBatch predicts rows in parallel and returns predictions in input
// order. Used by the active-learning loop to sweep the whole configuration
// pool.
func (f *Forest) PredictBatch(x [][]float64) []float64 {
	out := make([]float64, len(x))
	par.ForChunked(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f.Predict(x[i])
		}
	})
	return out
}

// PredictFlat predicts over a row-major flat feature matrix (len(flat) =
// n*dim, row i at flat[i*dim:(i+1)*dim]) writing the n predictions into out.
// No per-row slice headers, and chunks are traversed tree-major so each
// tree's node arrays stay cache-hot across the whole chunk instead of being
// re-walked per point. Results are bit-identical to Predict on the same
// rows. The engine's pools are grid cells and go through PredictGrid or
// PredictCells; this is the kernel for rows that are not, and the reference
// both are tested against.
func (f *Forest) PredictFlat(flat []float64, dim int, out []float64) {
	if dim != f.nFeatures {
		panic(fmt.Sprintf("forest: PredictFlat dim %d, forest fitted on %d features", dim, f.nFeatures))
	}
	if dim <= 0 || len(flat)%dim != 0 {
		panic(fmt.Sprintf("forest: PredictFlat matrix length %d not a multiple of dim %d", len(flat), dim))
	}
	n := len(flat) / dim
	if len(out) < n {
		panic(fmt.Sprintf("forest: PredictFlat out length %d for %d rows", len(out), n))
	}
	par.ForChunked(n, func(lo, hi int) {
		f.PredictFlatRange(flat, dim, lo, hi, out)
	})
}

// PredictFlatRange is the serial building block of PredictFlat: it fills
// out[lo:hi] with predictions for rows [lo, hi) of the flat matrix. Callers
// that fuse several forests into one parallel sweep (one chunk pass filling
// every objective) invoke it directly from their own worker loop. dim must
// equal the fitted feature count and out must have length ≥ hi; neither is re-validated
// here.
func (f *Forest) PredictFlatRange(flat []float64, dim, lo, hi int, out []float64) {
	for i := lo; i < hi; i++ {
		out[i] = 0
	}
	for _, t := range f.trees {
		feature, thresh := t.feature, t.thresh
		left, right, value := t.left, t.right, t.value
		for i := lo; i < hi; i++ {
			base := i * dim
			j := int32(0)
			for {
				fj := feature[j]
				if fj < 0 {
					break
				}
				if flat[base+int(fj)] <= thresh[j] {
					j = left[j]
				} else {
					j = right[j]
				}
			}
			out[i] += value[j]
		}
	}
	// Same accumulation order (tree 0..T-1) and final division as Predict,
	// so the flat path is bit-identical to the row path.
	nt := float64(len(f.trees))
	for i := lo; i < hi; i++ {
		out[i] /= nt
	}
}
