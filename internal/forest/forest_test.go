package forest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeRegression builds a noisy non-linear regression problem.
func makeRegression(rng *rand.Rand, n int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a := rng.Float64() * 4
		b := rng.Float64() * 4
		c := rng.Float64() // irrelevant feature
		x[i] = []float64{a, b, c}
		y[i] = math.Sin(a)*3 + b*b + rng.NormFloat64()*0.05
	}
	return x, y
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Options{}); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if _, err := Fit([][]float64{{}}, []float64{1}, Options{}); err == nil {
		t.Fatal("expected error on zero-dim features")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("expected error on ragged rows")
	}
}

func TestConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	f, err := Fit(x, y, Options{Trees: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{2.5}); got != 5 {
		t.Fatalf("Predict = %v, want 5", got)
	}
}

func TestSingleSample(t *testing.T) {
	f, err := Fit([][]float64{{1, 2}}, []float64{7}, Options{Trees: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{0, 0}); got != 7 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestLearnsStepFunction(t *testing.T) {
	// A single split at x=0.5 should be learned almost perfectly.
	rng := rand.New(rand.NewSource(2))
	n := 400
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := rng.Float64()
		x[i] = []float64{v}
		if v <= 0.5 {
			y[i] = 1
		} else {
			y[i] = 10
		}
	}
	f, err := Fit(x, y, Options{Trees: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{0.2}); math.Abs(got-1) > 0.5 {
		t.Fatalf("Predict(0.2) = %v, want ≈1", got)
	}
	if got := f.Predict([]float64{0.8}); math.Abs(got-10) > 0.5 {
		t.Fatalf("Predict(0.8) = %v, want ≈10", got)
	}
}

func TestFitReducesErrorVsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xTrain, yTrain := makeRegression(rng, 600)
	xTest, yTest := makeRegression(rng, 200)

	f, err := Fit(xTrain, yTrain, Options{Trees: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, v := range yTrain {
		mean += v
	}
	mean /= float64(len(yTrain))

	mseForest, mseMean := 0.0, 0.0
	for i, xv := range xTest {
		p := f.Predict(xv)
		mseForest += (p - yTest[i]) * (p - yTest[i])
		mseMean += (mean - yTest[i]) * (mean - yTest[i])
	}
	if mseForest >= mseMean/4 {
		t.Fatalf("forest MSE %v not ≪ mean-predictor MSE %v", mseForest, mseMean)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := makeRegression(rng, 200)
	f1, err := Fit(x, y, Options{Trees: 8, Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Fit(x, y, Options{Trees: 8, Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{1.5, 2.5, 0.5}
	if f1.Predict(probe) != f2.Predict(probe) {
		t.Fatal("same seed must give identical forests regardless of workers")
	}
	f3, err := Fit(x, y, Options{Trees: 8, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if f1.Predict(probe) == f3.Predict(probe) {
		t.Fatal("different seeds should (almost surely) differ")
	}
}

// Property: forest predictions always lie within [min(y), max(y)] — tree
// leaves are averages of training targets.
func TestPredictionBoundedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := makeRegression(rng, 300)
	f, err := Fit(x, y, Options{Trees: 16, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := y[0], y[0]
	for _, v := range y {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	prop := func(a, b, c float64) bool {
		q := []float64{math.Mod(math.Abs(a), 4), math.Mod(math.Abs(b), 4), math.Mod(math.Abs(c), 1)}
		p := f.Predict(q)
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := makeRegression(rng, 250)
	f, err := Fit(x, y, Options{Trees: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	batch := f.PredictBatch(x)
	for i := range x {
		if batch[i] != f.Predict(x[i]) {
			t.Fatalf("batch[%d] = %v != %v", i, batch[i], f.Predict(x[i]))
		}
	}
}

func TestPredictFlatMatchesPredictBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := makeRegression(rng, 250)
	f, err := Fit(x, y, Options{Trees: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dim := len(x[0])
	flat := make([]float64, len(x)*dim)
	for i, row := range x {
		copy(flat[i*dim:(i+1)*dim], row)
	}
	batch := f.PredictBatch(x)
	out := make([]float64, len(x))
	f.PredictFlat(flat, dim, out)
	for i := range out {
		// Bit-identical, not approximately equal: the engine's determinism
		// guarantee depends on the flat path matching the row path exactly.
		if out[i] != batch[i] {
			t.Fatalf("PredictFlat[%d] = %v, PredictBatch = %v", i, out[i], batch[i])
		}
	}
	// The serial range building block must agree on partial sweeps too.
	partial := make([]float64, len(x))
	f.predictFlatRange(flat, dim, 10, 40, partial)
	for i := 10; i < 40; i++ {
		if partial[i] != batch[i] {
			t.Fatalf("predictFlatRange[%d] = %v, want %v", i, partial[i], batch[i])
		}
	}
}

func TestPredictFlatValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := makeRegression(rng, 50)
	f, err := Fit(x, y, Options{Trees: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("wrong dim", func() { f.PredictFlat(make([]float64, 8), 2, make([]float64, 4)) })
	mustPanic("ragged matrix", func() { f.PredictFlat(make([]float64, 7), 3, make([]float64, 3)) })
	mustPanic("short out", func() { f.PredictFlat(make([]float64, 9), 3, make([]float64, 2)) })
}

func TestOOBErrorReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x, y := makeRegression(rng, 500)
	f, err := Fit(x, y, Options{Trees: 32, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	variance := 0.0
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for _, v := range y {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(y))
	if f.OOBError() <= 0 {
		t.Fatal("OOB error should be positive on noisy data")
	}
	if f.OOBError() >= variance {
		t.Fatalf("OOB MSE %v not better than target variance %v", f.OOBError(), variance)
	}
}

func TestFeatureImportanceIdentifiesSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x, y := makeRegression(rng, 500) // features 0,1 carry signal; 2 is noise
	f, err := Fit(x, y, Options{Trees: 32, Seed: 15, maxFeatures: 3})
	if err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportance()
	total := imp[0] + imp[1] + imp[2]
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("importance not normalized: %v", imp)
	}
	if imp[2] > imp[0] || imp[2] > imp[1] {
		t.Fatalf("noise feature ranked above signal: %v", imp)
	}
}

func TestMaxDepthLimitsTreeSize(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x, y := makeRegression(rng, 300)
	shallow, err := Fit(x, y, Options{Trees: 4, Seed: 17, maxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range shallow.trees {
		// Depth-2 binary tree has at most 7 nodes.
		if len(tr.feature) > 7 {
			t.Fatalf("depth-2 tree has %d nodes", len(tr.feature))
		}
	}
}

func TestMinSamplesLeafRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	x, y := makeRegression(rng, 200)
	f, err := Fit(x, y, Options{Trees: 4, Seed: 19, minSamplesLeaf: 50})
	if err != nil {
		t.Fatal(err)
	}
	// With min leaf 50 on 200 samples, trees must be tiny.
	for _, tr := range f.trees {
		if len(tr.feature) > 15 {
			t.Fatalf("min-leaf-50 tree has %d nodes", len(tr.feature))
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	o := Options{}.withDefaults(9)
	if o.Trees != 32 || o.minSamplesLeaf != 2 || o.maxFeatures != 3 || o.sampleRatio != 1 {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{}.withDefaults(2)
	if o.maxFeatures != 1 {
		t.Fatalf("maxFeatures floor = %d", o.maxFeatures)
	}
}

func TestAccessors(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	y := []float64{1, 2, 3, 4}
	f, err := Fit(x, y, Options{Trees: 5, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportance()
	imp[0] = 99
	if f.FeatureImportance()[0] == 99 {
		t.Fatal("FeatureImportance must return a copy")
	}
}

func BenchmarkFit1000x9(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, d := 1000, 9
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		y[i] = row[0]*row[1] + math.Sin(row[2]*6)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(x, y, Options{Trees: 20, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := makeRegression(rng, 800)
	f, err := Fit(x, y, Options{Trees: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pool := make([][]float64, 10000)
	for i := range pool {
		pool[i] = []float64{rng.Float64() * 4, rng.Float64() * 4, rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatch(pool)
	}
}

// BenchmarkPredictPool compares a design-space-pool sweep through the
// row-slice path (PredictBatch over [][]float64, what the engine did before
// the flat-matrix path) against PredictFlat over the same encodings.
func BenchmarkPredictPool(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := makeRegression(rng, 800)
	f, err := Fit(x, y, Options{Trees: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	const n, dim = 50_000, 3
	flat := make([]float64, n*dim)
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := flat[i*dim : (i+1)*dim]
		row[0], row[1], row[2] = rng.Float64()*4, rng.Float64()*4, rng.Float64()
		rows[i] = row
	}
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = f.PredictBatch(rows)
		}
	})
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		out := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.PredictFlat(flat, dim, out)
		}
	})
}
