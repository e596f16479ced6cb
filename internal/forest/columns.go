package forest

import (
	"errors"
	"fmt"
	"slices"
)

// Columns is the presorted column-major design matrix tree training runs
// on: one contiguous value slice per feature plus, per feature, the row
// indices sorted by (value, row). The composite key makes each order a
// strict total order, so it is unique — incrementally merging appended
// batches yields bit-for-bit the same orders as re-sorting from scratch,
// which is what lets the active-learning loop warm-start refits: encode a
// batch once, append it, and every subsequent fit reuses the merged orders
// instead of re-sorting the node segment per candidate feature per node.
//
// A Columns may be shared read-only by concurrent fits (the engine fits one
// forest per objective over the same matrix); AppendRows must not run
// concurrently with a fit.
type Columns struct {
	dim  int
	n    int
	vals [][]float64 // vals[f][row]
	sort [][]int32   // sort[f]: rows ordered by (vals[f][row], row)

	batch []int32 // scratch: sorted indices of the freshly appended rows
}

// NewColumns returns an empty matrix with the given feature count.
func NewColumns(dim int) *Columns {
	return &Columns{
		dim:  dim,
		vals: make([][]float64, dim),
		sort: make([][]int32, dim),
	}
}

// ColumnsFromRows transposes a row-major matrix in one shot. It rejects
// empty feature vectors and ragged rows.
func ColumnsFromRows(x [][]float64) (*Columns, error) {
	if len(x) == 0 {
		return nil, errors.New("forest: no training samples")
	}
	d := len(x[0])
	if d == 0 {
		return nil, errors.New("forest: zero-dimensional features")
	}
	c := NewColumns(d)
	if err := c.AppendRows(x); err != nil {
		return nil, err
	}
	return c, nil
}

// NumRows returns the number of rows appended so far.
func (c *Columns) NumRows() int { return c.n }

// Dim returns the feature count.
func (c *Columns) Dim() int { return c.dim }

// AppendRows adds a batch of feature vectors, extending each column and
// merging the batch into the per-feature sorted orders. The merge costs
// O(d·(n + b log b)) for b new rows over n existing ones, versus the
// O(d·n log n) a from-scratch argsort would pay every refit.
func (c *Columns) AppendRows(rows [][]float64) error {
	b := len(rows)
	if b == 0 {
		return nil
	}
	for i, r := range rows {
		if len(r) != c.dim {
			return fmt.Errorf("forest: row %d has %d features, want %d", i, len(r), c.dim)
		}
	}
	n := c.n
	if cap(c.batch) < b {
		c.batch = make([]int32, b)
	}
	for f := 0; f < c.dim; f++ {
		col := c.vals[f]
		for _, r := range rows {
			col = append(col, r[f])
		}
		c.vals[f] = col

		// Sort the batch indices by (value, row); row indices are already
		// increasing, so equal values stay in row order under any sort.
		batch := c.batch[:b]
		for i := range batch {
			batch[i] = int32(n + i)
		}
		slices.SortFunc(batch, func(a, bb int32) int { return cmpValRow(col, a, bb) })

		// Backward in-place merge: grow the order to n+b, then fill from the
		// tail taking the larger of the old order's tail and the batch's tail
		// (the batch lives in its own scratch, so nothing is clobbered).
		ord := append(c.sort[f], batch...)
		i, j, k := n-1, b-1, n+b-1
		for j >= 0 {
			if i >= 0 && cmpValRow(col, ord[i], batch[j]) > 0 {
				ord[k] = ord[i]
				i--
			} else {
				ord[k] = batch[j]
				j--
			}
			k--
		}
		c.sort[f] = ord
	}
	c.n = n + b
	return nil
}

// cmpValRow is THE ordering of this package: rows compared by
// (column value, row index), a strict total order. Every sorted structure —
// the global per-feature orders and batch merges — must use it, and only
// it: the tree builder's split scans and node statistics run in this order,
// and TestFitDigest and TestFitMatchesLegacyPath pin the trees they give.
func cmpValRow(col []float64, a, b int32) int {
	va, vb := col[a], col[b]
	if va != vb {
		if va < vb {
			return -1
		}
		return 1
	}
	return int(a - b)
}
