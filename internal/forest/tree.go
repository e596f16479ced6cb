package forest

import (
	"math"
	"math/rand"
)

// tree is a CART regression tree stored in flat arrays (structure-of-arrays
// layout keeps prediction cache-friendly). Node 0 is the root. feature[i] is
// -1 for leaves, whose prediction is value[i]; internal nodes route samples
// with x[feature] <= thresh to left, else right.
type tree struct {
	feature []int32
	thresh  []float64
	left    []int32
	right   []int32
	value   []float64
}

// predict routes x through the tree to a leaf mean.
func (t *tree) predict(x []float64) float64 {
	i := int32(0)
	for t.feature[i] >= 0 {
		if x[t.feature[i]] <= t.thresh[i] {
			i = t.left[i]
		} else {
			i = t.right[i]
		}
	}
	return t.value[i]
}

// predictCols routes training row s through the tree reading straight from
// the column-major matrix — the out-of-bag pass needs no row gather.
func (t *tree) predictCols(c *Columns, s int) float64 {
	i := int32(0)
	for t.feature[i] >= 0 {
		if c.vals[t.feature[i]][s] <= t.thresh[i] {
			i = t.left[i]
		} else {
			i = t.right[i]
		}
	}
	return t.value[i]
}

// debugCheckSorted, when set by tests, is invoked at every node entry of the
// presorted builder to assert the per-feature index lists are still ordered
// by (value, row) after the stable partitions above this node.
var debugCheckSorted func(b *treeBuilder, lo, hi int)

// treeBuilder grows one tree over a bootstrap sample of a Columns matrix.
// It keeps per-feature index lists over the bag, each ordered by
// (value, row), built once per tree from the matrix's global orders and kept
// sorted through splits by stable partitioning — so every split search is a
// pure O(mtry·n) prefix scan with zero sorting.
//
// Every floating-point accumulation runs in a fixed order: candidate
// features in the rng's shuffled order, each candidate's rows in the
// (value, row) total order. A seeded fit is therefore one exact tree, which
// TestFitDigest and TestFitMatchesLegacyPath pin bit for bit.
type treeBuilder struct {
	cols *Columns
	y    []float64
	opts Options
	rng  *rand.Rand

	bagSize    int
	importance []float64 // impurity-decrease accumulator per feature (d)

	// lists[f*bagSize+i] is the i-th bag entry of feature f's sorted list;
	// node [lo,hi) owns lists[f*bagSize+lo : f*bagSize+hi).
	lists []int32

	goesLeft []uint8 // per-row split side (1 = left), written then read at each split
	tmp      []int32 // stable-partition spill buffer

	featBuf []int // candidate feature scratch

	// Tree under construction; backed by reusable scratch, copied out by
	// finish().
	feature []int32
	thresh  []float64
	left    []int32
	right   []int32
	value   []float64
}

// grow builds the tree over the bag and returns a right-sized copy.
func (b *treeBuilder) grow() *tree {
	b.feature = b.feature[:0]
	b.thresh = b.thresh[:0]
	b.left = b.left[:0]
	b.right = b.right[:0]
	b.value = b.value[:0]
	b.buildNode(0, b.bagSize, 0)
	return b.finish()
}

// finish copies the scratch-backed node arrays into exactly-sized persistent
// storage: two backing allocations per tree instead of the append-growth
// churn of building in place.
func (b *treeBuilder) finish() *tree {
	n := len(b.feature)
	i32 := make([]int32, 3*n)
	f64 := make([]float64, 2*n)
	t := &tree{
		feature: i32[:n:n],
		left:    i32[n : 2*n : 2*n],
		right:   i32[2*n : 3*n : 3*n],
		thresh:  f64[:n:n],
		value:   f64[n : 2*n : 2*n],
	}
	copy(t.feature, b.feature)
	copy(t.left, b.left)
	copy(t.right, b.right)
	copy(t.thresh, b.thresh)
	copy(t.value, b.value)
	return t
}

// addNode appends a node and returns its index.
func (b *treeBuilder) addNode() int32 {
	i := int32(len(b.feature))
	b.feature = append(b.feature, -1)
	b.thresh = append(b.thresh, 0)
	b.left = append(b.left, -1)
	b.right = append(b.right, -1)
	b.value = append(b.value, 0)
	return i
}

// nodeRows returns the node's bag entries ordered by (value of feature f,
// row): its segment of feature f's presorted list.
func (b *treeBuilder) nodeRows(f, lo, hi int) []int32 {
	return b.lists[f*b.bagSize+lo : f*b.bagSize+hi]
}

// buildNode grows the subtree over bag entries [lo, hi) and returns its
// node index.
func (b *treeBuilder) buildNode(lo, hi, depth int) int32 {
	if debugCheckSorted != nil {
		debugCheckSorted(b, lo, hi)
	}
	node := b.addNode()
	n := hi - lo

	// Node statistics, accumulated in (feature-0 value, row) order: the
	// order TestFitDigest's trees were recorded in.
	sum, sum2 := 0.0, 0.0
	for _, row := range b.nodeRows(0, lo, hi) {
		v := b.y[row]
		sum += v
		sum2 += float64(v * v) // rounded before it is added: never fused
	}
	mean := sum / float64(n)
	sse := sum2 - sum*sum/float64(n) // total squared error around the mean
	b.value[node] = mean

	if n < 2*b.opts.minSamplesLeaf || sse <= 1e-12 ||
		(b.opts.maxDepth > 0 && depth >= b.opts.maxDepth) {
		return node
	}

	feat, thresh, gain := b.bestSplit(lo, hi, sum)
	if feat < 0 {
		return node
	}

	// Mark each row's side and count the entries going left. The partition
	// predicate is the same `<=` predict uses, so midpoints that round onto
	// a boundary value stay consistent with inference.
	col := b.cols.vals[feat]
	nl := 0
	for _, row := range b.nodeRows(feat, lo, hi) {
		left := uint8(0)
		if col[row] <= thresh {
			left = 1
		}
		b.goesLeft[row] = left
		nl += int(left)
	}
	mid := lo + nl
	if mid == lo || mid == hi {
		return node // degenerate partition; keep as leaf
	}

	// Stable partition: relative order within each side is preserved, so the
	// per-feature lists remain sorted by (value, row) in both children. The
	// split feature's own list needs none: sorted by the value the predicate
	// tests, its left rows are already its first nl entries.
	for f := 0; f < b.cols.dim; f++ {
		if f != feat {
			stablePartition(b.nodeRows(f, lo, hi), b.goesLeft, b.tmp)
		}
	}

	b.importance[feat] += gain
	b.feature[node] = int32(feat)
	b.thresh[node] = thresh
	b.left[node] = b.buildNode(lo, mid, depth+1)
	b.right[node] = b.buildNode(mid, hi, depth+1)
	return node
}

// stablePartition moves seg entries whose row is marked goesLeft to the
// front, preserving relative order on both sides. tmp must hold len(seg).
//
// A row's side is as hard to guess as a coin flip, so the loop does not
// branch on it: each row is stored to both sides and only its own side's
// cursor advances. Writing seg in place is safe because the left cursor
// never passes the entry being read.
func stablePartition(seg []int32, goesLeft []uint8, tmp []int32) {
	w, k := 0, 0
	for _, row := range seg {
		l := int(goesLeft[row])
		seg[w] = row
		tmp[k] = row
		w += l
		k += 1 - l
	}
	copy(seg[w:], tmp[:k])
}

// bestSplit searches a random subset of features for the split with the
// largest SSE reduction: one prefix scan per candidate over the node's rows
// in (value, row) order, evaluating every boundary between distinct values.
// It returns the chosen feature (-1 if none), the threshold, and the
// impurity decrease.
func (b *treeBuilder) bestSplit(lo, hi int, sum float64) (feat int, thresh float64, gain float64) {
	n := hi - lo
	d := b.cols.dim
	mtry := b.opts.maxFeatures
	if mtry <= 0 || mtry > d {
		mtry = d
	}

	// Draw mtry distinct candidate features.
	b.featBuf = b.featBuf[:0]
	for i := 0; i < d; i++ {
		b.featBuf = append(b.featBuf, i)
	}
	b.rng.Shuffle(d, func(i, j int) { b.featBuf[i], b.featBuf[j] = b.featBuf[j], b.featBuf[i] })
	candidates := b.featBuf[:mtry]

	feat = -1
	bestScore := math.Inf(-1)
	minLeaf := b.opts.minSamplesLeaf

	for _, f := range candidates {
		seg := b.nodeRows(f, lo, hi)
		col := b.cols.vals[f]
		leftSum := 0.0
		for i := 0; i < n-1; i++ {
			leftSum += b.y[seg[i]]
			nl := i + 1
			nr := n - nl
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			xv, xn := col[seg[i]], col[seg[i+1]]
			if xv == xn {
				continue // cannot split between equal values
			}
			rightSum := sum - leftSum
			// Maximizing SSE reduction == maximizing
			// leftSum²/nl + rightSum²/nr (parent term is constant).
			score := leftSum*leftSum/float64(nl) + rightSum*rightSum/float64(nr)
			if score > bestScore {
				bestScore = score
				feat = f
				thresh = (xv + xn) / 2
			}
		}
	}
	if feat < 0 {
		return -1, 0, 0
	}
	parentScore := sum * sum / float64(n)
	gain = bestScore - parentScore
	if gain <= 1e-12 {
		return -1, 0, 0
	}
	return feat, thresh, gain
}
