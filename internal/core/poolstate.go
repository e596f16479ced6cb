package core

import (
	"fmt"
	"math/rand"

	"repro/internal/forest"
	"repro/internal/par"
	"repro/internal/param"
	"repro/internal/pareto"
)

// poolState carries the exploration state that is stable across
// active-learning iterations, so the loop stops redoing work the paper's
// Algorithm 1 only needs once:
//
//   - the prediction pool, which takes one of two shapes. A space that fits
//     under PoolCap is predicted whole: the pool is the Cartesian grid
//     itself, described once by each parameter's encoded levels
//     (forest.Grid), and no per-configuration encoding is ever built — a
//     constrained space adds only the list of its feasible indices. A larger
//     space is subsampled every round: a flat row-major matrix holds the
//     encodings, only the fresh random draws are encoded per round, and the
//     evaluated-index suffix is served from cached encodings;
//   - the training matrix: samples are encoded when they are measured and
//     appended, instead of re-encoding all of X_out before every forest fit;
//   - the prediction scratch: per-objective output columns, the point slice
//     and its objective backing array are reused across iterations, so a
//     steady-state round performs no pool-sized allocations.
//
// Each shape has its own prediction kernel, chosen in predict: the grid is
// swept by box-fill (forest.PredictGrid: every tree walked once, each leaf
// adding its value to the whole box of cells that reaches it), the flat
// matrix row by row (forest.PredictFlatRange). Both give every pool point
// the sum of tree 0..T-1's leaf values in that order and one final division,
// so they are bit-identical to each other and to Forest.Predict, and a
// seeded run does not depend on which one ran.
//
// The state is bound to one run (one space, one objective count) and is not
// safe for concurrent use; RunContext drives it from a single goroutine.
type poolState struct {
	space   *param.Space
	dim     int
	k       int // objective count
	sampler Sampler

	poolCap    int
	enumerable bool // the whole space fits under poolCap

	grid *forest.Grid // enumerable pool: the whole space, built once

	// poolIdx lists the pool's design-space indices: on a subsampled space
	// this round's draw plus the evaluated suffix, on an enumerable
	// constrained space the feasible indices (built once), and nil on an
	// enumerable unconstrained space, whose pool is every index in order.
	poolIdx  []int64
	poolFlat []float64 // subsampled pool: row-major encodings of poolIdx

	enc map[int64][]float64 // design-space index → encoded row (evaluated points)

	// Append-only training matrix: one encoded row per measured sample, in
	// evaluation order, plus the per-objective target columns.
	xRows [][]float64
	ys    [][]float64

	// Presorted column-major view of xRows, shared by every objective's
	// forest fit and warm-started across iterations: rows measured since the
	// last fit are appended and their per-feature sorted orders merged
	// incrementally (forest.Columns), so refits never re-transpose or
	// re-argsort the accumulated training set.
	cols     *forest.Columns
	colsRows int // prefix of xRows already appended to cols

	// Prediction scratch, grown on demand and reused.
	pred   [][]float64    // per-objective prediction columns (one entry per grid cell or flat row)
	objs   []float64      // point-major objective backing (pool size × k)
	points []pareto.Point // pool points handed to the front filter
}

func newPoolState(space *param.Space, o Options) *poolState {
	return &poolState{
		space:      space,
		dim:        space.Dim(),
		k:          o.Objectives,
		sampler:    o.Sampler,
		poolCap:    o.PoolCap,
		enumerable: space.Size() <= int64(o.PoolCap),
		enc:        make(map[int64][]float64),
		ys:         make([][]float64, o.Objectives),
		pred:       make([][]float64, o.Objectives),
	}
}

// addSample encodes the measured configuration once and appends it to the
// training matrix; the row doubles as the cached pool encoding for the
// subsampled evaluated-index suffix.
func (st *poolState) addSample(s Sample) error {
	if len(s.Objs) != st.k {
		return fmt.Errorf("core: evaluator returned %d objectives, want %d", len(s.Objs), st.k)
	}
	row := make([]float64, st.dim)
	st.space.Encode(s.Config, row)
	st.enc[s.Index] = row
	st.xRows = append(st.xRows, row)
	for j := 0; j < st.k; j++ {
		st.ys[j] = append(st.ys[j], s.Objs[j])
	}
	return nil
}

// noteInvalid caches the encoding of a measured-but-invalid configuration
// (NaN objectives under a feasibility strategy): it never joins the
// training matrix, but on subsampled spaces its index sits in the
// evaluated-pool suffix, which is served from these cached rows.
func (st *poolState) noteInvalid(s Sample) {
	row := make([]float64, st.dim)
	st.space.Encode(s.Config, row)
	st.enc[s.Index] = row
}

// columns returns the shared presorted training matrix, first appending any
// rows measured since the previous fit — the warm-start seam of the
// active-learning loop: only the fresh batch is transposed and merged.
func (st *poolState) columns() (*forest.Columns, error) {
	if st.cols == nil {
		st.cols = forest.NewColumns(st.dim)
	}
	if err := st.cols.AppendRows(st.xRows[st.colsRows:]); err != nil {
		return nil, err
	}
	st.colsRows = len(st.xRows)
	return st.cols, nil
}

// pool prepares this iteration's prediction pool X. An enumerable space
// builds its grid (and, when constrained, its feasible-index list) exactly
// once; a subsampled space draws poolCap fresh indices (consuming the rng
// exactly like predictionPool, so seeded runs stay byte-identical across
// engine versions), encodes only those into poolFlat, and copies the cached
// rows for the sorted evaluated suffix.
func (st *poolState) pool(rng *rand.Rand, evaluated map[int64]int, workers int) error {
	if st.enumerable {
		if st.grid != nil {
			return nil
		}
		grid, err := spaceGrid(st.space)
		if err != nil {
			return err
		}
		st.grid = grid
		if st.space.Constrained() {
			// The pool is the feasible subset only: the predicted front
			// must never nominate a configuration the evaluator would
			// reject. The sweep still fills the whole grid (bounded by
			// poolCap); predict reads the feasible cells out of it.
			st.poolIdx = st.space.FeasibleIndices()
		}
		return nil
	}

	// Same draw (and rng consumption) as the legacy path; on this branch the
	// space exceeds poolCap, so the leading fresh entries are the random
	// draws (poolCap of them, fewer on a tightly constrained space) and the
	// rest is the sorted evaluated suffix, whose encodings are cached.
	pool, fresh := predictionPool(st.space, rng, st.sampler, st.poolCap, evaluated)

	if cap(st.poolFlat) < len(pool)*st.dim {
		st.poolFlat = make([]float64, len(pool)*st.dim)
	}
	st.poolFlat = st.poolFlat[:len(pool)*st.dim]
	st.poolIdx = pool
	st.encodeRange(0, fresh, workers)
	for i, idx := range pool[fresh:] {
		copy(st.poolFlat[(fresh+i)*st.dim:(fresh+i+1)*st.dim], st.enc[idx])
	}
	return nil
}

// spaceGrid describes the whole space to the grid kernel: one encoded value
// per level per parameter, through the same Encode the training rows take.
func spaceGrid(space *param.Space) (*forest.Grid, error) {
	levels := make([][]float64, space.Dim())
	cfg := space.AtIndex(0)
	row := make([]float64, space.Dim())
	for f, p := range space.Params() {
		levels[f] = make([]float64, len(p.Values))
		for l, v := range p.Values {
			cfg[f] = v
			space.Encode(cfg, row)
			levels[f][l] = row[f]
		}
	}
	return forest.NewGrid(levels)
}

// encodeRange decodes and encodes pool rows [lo, hi) into poolFlat in
// parallel chunks.
func (st *poolState) encodeRange(lo, hi, workers int) {
	par.ForChunkedWorkers(hi-lo, workers, func(clo, chi int) {
		cfg := make(param.Config, st.dim)
		for i := lo + clo; i < lo+chi; i++ {
			row := st.poolFlat[i*st.dim : (i+1)*st.dim]
			st.space.AtIndexInto(st.poolIdx[i], cfg)
			st.space.Encode(cfg, row)
		}
	})
}

// predict sweeps every objective's forest over the pool and transposes the
// per-objective columns into the point-major backing array, so no per-point
// Objs slice is allocated. This is the one place the pool-prediction kernel
// is chosen: the grid is swept whole by PredictGrid and the pool's cells read
// out of it; the flat matrix is predicted chunk by chunk via
// PredictFlatRange and each chunk transposed while it is cache-hot. The
// returned points (and any front filtered from them) alias reusable buffers
// that are overwritten by the next call.
func (st *poolState) predict(forests []*forest.Forest, workers int) []pareto.Point {
	// n pool points, read from `rows` predictions: a flat pool predicts
	// exactly its points; a grid predicts every cell, all of which are pool
	// points unless a constraint keeps only those listed in poolIdx.
	n := len(st.poolIdx)
	rows := n
	if st.grid != nil {
		rows = st.grid.Cells()
		if st.poolIdx == nil {
			n = rows
		}
	}
	for j := range st.pred {
		if cap(st.pred[j]) < rows {
			st.pred[j] = make([]float64, rows)
		}
		st.pred[j] = st.pred[j][:rows]
	}
	if cap(st.objs) < n*st.k {
		st.objs = make([]float64, n*st.k)
	}
	st.objs = st.objs[:n*st.k]
	if cap(st.points) < n {
		st.points = make([]pareto.Point, n)
	}
	st.points = st.points[:n]

	// gather fills points [lo, hi) from the prediction columns: point i is
	// flat row i, or the grid cell of its design-space index.
	gather := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			id, row := int64(i), i
			if st.poolIdx != nil {
				id = st.poolIdx[i]
				if st.grid != nil {
					row = int(id)
				}
			}
			objs := st.objs[i*st.k : (i+1)*st.k : (i+1)*st.k]
			for j := 0; j < st.k; j++ {
				objs[j] = st.pred[j][row]
			}
			st.points[i] = pareto.Point{ID: id, Objs: objs}
		}
	}
	if st.grid != nil {
		for j, f := range forests {
			f.PredictGrid(st.grid, st.pred[j], workers)
		}
		par.ForChunkedWorkers(n, workers, gather)
	} else {
		par.ForChunkedWorkers(n, workers, func(lo, hi int) {
			for j, f := range forests {
				f.PredictFlatRange(st.poolFlat, st.dim, lo, hi, st.pred[j])
			}
			gather(lo, hi)
		})
	}
	return st.points
}
