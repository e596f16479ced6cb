package forest

import (
	"math/rand"
	"testing"
)

// classifierData labels points in the unit square by a hidden rule
// (feasible iff x0+x1 < 1) — linearly separable, so a forest with enough
// trees should rank in-region points far above out-of-region ones.
func classifierData(n int, seed int64) (x [][]float64, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		x = append(x, p)
		if p[0]+p[1] < 1 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return x, y
}

func TestFitClassifierRejectsNonBinaryLabels(t *testing.T) {
	x := [][]float64{{0}, {1}}
	if _, err := FitClassifier(x, []float64{0, 0.5}, Options{Trees: 2}); err == nil {
		t.Fatal("fractional label accepted")
	}
	if _, err := FitClassifier(x, []float64{0, 2}, Options{Trees: 2}); err == nil {
		t.Fatal("label 2 accepted")
	}
}

func TestClassifierLearnsSeparableRegion(t *testing.T) {
	x, y := classifierData(400, 1)
	c, err := FitClassifier(x, y, Options{Trees: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	probs := c.PredictProbs([][]float64{{0.1, 0.1}, {0.9, 0.9}})
	deepIn, deepOut := probs[0], probs[1]
	if deepIn < 0.9 {
		t.Fatalf("P(feasible) deep inside the region = %v, want ≥ 0.9", deepIn)
	}
	if deepOut > 0.1 {
		t.Fatalf("P(feasible) deep outside the region = %v, want ≤ 0.1", deepOut)
	}
}

func TestClassifierProbabilitiesInRange(t *testing.T) {
	x, y := classifierData(100, 2)
	c, err := FitClassifier(x, y, Options{Trees: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := classifierData(50, 4)
	for _, p := range c.PredictProbs(probe) {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of [0,1]", p)
		}
	}
}

func TestClassifierDeterministicBySeed(t *testing.T) {
	x, y := classifierData(200, 5)
	a, err := FitClassifier(x, y, Options{Trees: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitClassifier(x, y, Options{Trees: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := classifierData(40, 6)
	pa := a.PredictProbs(probe)
	pb := b.PredictProbs(probe)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("same seed, different prediction at %d: %v vs %v", i, pa[i], pb[i])
		}
	}
}
