package forest

import "fmt"

// Classifier is the package's classification mode: a random forest over
// binary {0, 1} labels whose averaged tree output is read as the
// probability of class 1. It reuses the regression machinery unchanged —
// for a binary target, the variance reduction of a split equals the Gini
// impurity decrease up to a constant factor, so the CART regression
// splitter is already a CART classification splitter; only the
// interpretation of the leaf values changes.
//
// The engine uses it as the feasibility model of the search-strategy
// pipeline: trained on observed valid/invalid outcomes, consulted to
// filter or down-weight candidates predicted infeasible.
type Classifier struct {
	f *Forest
}

// FitClassifier trains a classifier on rows x with labels y, one 0-or-1
// label per row (any other value is an error — a fractional "label" is
// almost always a bug in the caller's labeling, not a soft target).
// Options are interpreted exactly as in Fit; equal seeds yield identical
// classifiers.
func FitClassifier(x [][]float64, y []float64, opts Options) (*Classifier, error) {
	for i, v := range y {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("forest: classification label %v at row %d (want 0 or 1)", v, i)
		}
	}
	f, err := Fit(x, y, opts)
	if err != nil {
		return nil, err
	}
	return &Classifier{f: f}, nil
}

// PredictProbs predicts the probability that each row is class 1, clamped
// to [0, 1].
func (c *Classifier) PredictProbs(x [][]float64) []float64 {
	out := c.f.PredictBatch(x)
	for i, p := range out {
		out[i] = clamp01(p)
	}
	return out
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
