package core

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/forest"
	"repro/internal/param"
	"repro/internal/pareto"
)

// poolState carries the exploration state that is stable across
// active-learning iterations, so the loop stops redoing work the paper's
// Algorithm 1 only needs once:
//
//   - the prediction pool. Every pool point is a cell of the design grid,
//     described once by each parameter's encoded levels (forest.Grid), so no
//     per-configuration encoding is ever built. The pool takes one of two
//     shapes. "Grid, all cells": a space that fits under PoolCap is predicted
//     whole — a constrained space adds only the list of its feasible indices.
//     "Grid, drawn cells": a larger space is subsampled every round, and the
//     pool is this round's list of cell indices (fresh random draws, then
//     the evaluated indices) and nothing else;
//   - the training matrix: samples are encoded when they are measured and
//     appended, instead of re-encoding all of X_out before every forest fit;
//   - the prediction scratch: per-objective output columns, and the
//     candidate positions, points and objective backing of the predicted
//     front, are reused across iterations, so a steady-state round performs
//     no pool-sized allocations. The columns grow as append does, so a
//     drawn pool's columns do not regrow every round as its evaluated
//     suffix does; whole-grid columns are sized exactly, with no headroom.
//
// The predicted front is read from the prediction columns themselves
// (front): pareto's staircase prefilter runs on the columns, and only the
// pool points it cannot rule out become pareto.Points — a few thousand of a
// 192 000-cell grid, which is never materialised point by point.
//
// Each shape has its own prediction kernel, chosen in predict: all cells are
// swept by box-fill (forest.PredictGrid: every tree walked once, each leaf
// adding its value to the whole box of cells that reaches it), drawn cells
// are scored one by one (forest.PredictCells). PredictCells in turn picks its
// kernel from the forest's widest tree, not from anything here: while every
// tree has at most forest's cellsMaskWords words of leaves, a cell's exit
// leaf in a tree is the lowest set bit of an AND of per-feature leaf masks
// (every leaf left of the exit leaf is ruled out by a node that sent the cell
// right, and no node rules out the exit leaf itself); wider forests, as at
// the paper's sample budgets, are walked eight rows at a time on level ranks.
// Every kernel gives every pool point the sum of tree 0..T-1's leaf values
// in that order and one final division, and decides every node test as the
// float comparison on the encoded level would, so all are bit-identical to
// each other and to Forest.Predict on the encoded configuration, and a
// seeded run does not depend on which one ran.
//
// The state is bound to one run (one space, one objective count) and is not
// safe for concurrent use; RunContext drives it from a single goroutine.
type poolState struct {
	space    *param.Space
	dim      int
	k        int // objective count
	strategy Strategy

	poolCap    int
	enumerable bool // the whole space fits under poolCap

	grid *forest.Grid // the whole space, built once

	// poolIdx lists the pool's design-space indices (grid cells): on a
	// subsampled space this round's draw plus the evaluated suffix, on an
	// enumerable constrained space the feasible indices (built once), and nil
	// on an enumerable unconstrained space, whose pool is every index in
	// order.
	poolIdx []int64

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
	pred   [][]float64    // per-objective prediction columns (one entry per grid cell or drawn cell)
	keep   []int          // pool positions that may be on the predicted front
	objs   []float64      // point-major objective backing (len(keep) × k)
	points []pareto.Point // the candidates handed to the front filter
}

func newPoolState(space *param.Space, o Options) *poolState {
	return &poolState{
		space:      space,
		dim:        space.Dim(),
		k:          o.Objectives,
		strategy:   o.Strategy,
		poolCap:    o.PoolCap,
		enumerable: space.Size() <= int64(o.PoolCap),
		ys:         make([][]float64, o.Objectives),
		pred:       make([][]float64, o.Objectives),
	}
}

// addSample encodes the measured configuration once and appends it to the
// training matrix.
func (st *poolState) addSample(s Sample) error {
	if len(s.Objs) != st.k {
		return fmt.Errorf("core: evaluator returned %d objectives, want %d", len(s.Objs), st.k)
	}
	row := make([]float64, st.dim)
	st.space.Encode(s.Config, row)
	st.xRows = append(st.xRows, row)
	for j := 0; j < st.k; j++ {
		st.ys[j] = append(st.ys[j], s.Objs[j])
	}
	return nil
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

// pool prepares this iteration's prediction pool X. The grid (and, on an
// enumerable constrained space, the feasible-index list) is built exactly
// once; a subsampled space draws poolCap fresh indices plus the evaluated
// ones every round. The draws are part of a seeded run, so they must not
// move across engine versions: the run digests in digest_test.go pin them.
func (st *poolState) pool(rng *rand.Rand, evaluated map[int64]int) error {
	if st.grid == nil {
		grid, err := spaceGrid(st.space)
		if err != nil {
			return err
		}
		st.grid = grid
		if st.enumerable && st.space.Constrained() {
			// The pool is the feasible subset only: the predicted front
			// must never nominate a configuration the evaluator would
			// reject. The sweep still fills the whole grid (bounded by
			// poolCap); predict reads the feasible cells out of it.
			st.poolIdx = st.space.FeasibleIndices()
		}
	}
	if !st.enumerable {
		st.poolIdx = predictionPool(st.space, rng, st.strategy, st.poolCap, evaluated)
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

// predict sweeps every objective's forest over the pool into the
// per-objective prediction columns st.pred. This is the one place the
// pool-prediction kernel is chosen: an enumerable space is swept whole by
// PredictGrid, so column row r is design-space index r; a subsampled one
// predicts exactly its drawn cells with PredictCells, so row i is pool
// point i.
func (st *poolState) predict(forests []*forest.Forest, workers int) {
	rows := len(st.poolIdx)
	if st.enumerable {
		rows = st.grid.Cells()
	}
	for j, f := range forests {
		st.pred[j] = slices.Grow(st.pred[j][:0], rows)[:rows]
		if st.enumerable {
			f.PredictGrid(st.grid, st.pred[j], workers)
		} else {
			f.PredictCells(st.grid, st.poolIdx, st.pred[j], workers)
		}
	}
}

// front returns the predicted Pareto front of the pool, read from the
// prediction columns. Only the points pareto.ColumnCandidates keeps become
// pareto.Points, and they go through the same sort and sweep as a whole
// materialised pool would, so the front is identical. The returned points
// alias reusable buffers that the next call overwrites.
func (st *poolState) front() []pareto.Point {
	// Pool point i is column row i, or — on an enumerable constrained space,
	// read out of the whole grid — the row of its design-space index.
	var rows []int64
	if st.enumerable {
		rows = st.poolIdx
	}
	st.keep = pareto.ColumnCandidates(st.keep[:0], st.pred, rows)
	n := len(st.keep)
	if cap(st.objs) < n*st.k {
		st.objs = make([]float64, n*st.k)
	}
	st.objs = st.objs[:n*st.k]
	if cap(st.points) < n {
		st.points = make([]pareto.Point, n)
	}
	st.points = st.points[:n]
	for c, i := range st.keep {
		id, row := int64(i), i
		if st.poolIdx != nil {
			id = st.poolIdx[i]
			if st.enumerable {
				row = int(id)
			}
		}
		objs := st.objs[c*st.k : (c+1)*st.k : (c+1)*st.k]
		for j := range objs {
			objs[j] = st.pred[j][row]
		}
		st.points[c] = pareto.Point{ID: id, Objs: objs}
	}
	return pareto.FrontInPlace(st.points)
}
