package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestWorkloadsSmallScale runs every workload at smoke-test scale, untraced
// and traced, so that the harness keeps compiling against internal/ and its
// correctness checks stay live.
func TestWorkloadsSmallScale(t *testing.T) {
	bounds, err := readBounds()
	if err != nil {
		t.Fatal(err)
	}
	var endToEnd []string
	for _, b := range bounds {
		endToEnd = append(endToEnd, b.Name)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := &config{seed: 7, seconds: 1, small: true, out: t.TempDir()}
			if traced {
				c.t = newTracer()
			}
			res, err := runWorkload(w, c)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d runs failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			want := endToEnd
			if traced {
				want = nil
				for _, d := range layerMetricDefs {
					want = append(want, d.name)
				}
				if _, err := os.Stat(filepath.Join(c.out, "trace_"+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
			for _, name := range want {
				m, ok := res.Metrics[name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s (traced %v): metric %s = %v, present %v", w.name, traced, name, m.Value, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			var out bytes.Buffer
			printResult(&out, res)
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var line resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil || line.Attempted != res.Attempted {
				t.Errorf("%s: last printed line is not the result line: %v", w.name, err)
			}
			if left, _ := filepath.Glob(filepath.Join(c.out, "data-*")); len(left) > 0 {
				t.Errorf("%s: data directories left behind: %v", w.name, left)
			}
		}
	}
}

// TestGoldenMismatchFailsRun holds the digest check to its word: a front
// that differs from its golden digest is a failed run.
func TestGoldenMismatchFailsRun(t *testing.T) {
	w, _ := workloadByName("inproc_pool192k")
	c := &config{seed: 7, seconds: 1, small: true, out: t.TempDir()}
	res, err := runWorkload(w, c)
	if err != nil || !res.Correct {
		t.Fatalf("clean run: %v %v", err, res)
	}
	g := &golden{Go: res.Env.Go, GOARCH: res.Env.GOARCH, Seed: 7, Fronts: map[string]map[string]string{w.name: res.Digests}}
	c = &config{seed: 7, seconds: 1, small: true, out: t.TempDir(), golden: g}
	if res, err = runWorkload(w, c); err != nil || !res.Correct {
		t.Fatalf("run against its own digests: %v %v", err, res.Failures)
	}
	for k := range g.Fronts[w.name] {
		g.Fronts[w.name][k] = "00"
		break
	}
	c = &config{seed: 7, seconds: 1, small: true, out: t.TempDir(), golden: g}
	if res, err = runWorkload(w, c); err != nil || res.Correct || res.Failed != 1 {
		t.Fatalf("run against a wrong digest: err %v, correct %v, failed %d", err, res.Correct, res.Failed)
	}
	if g.digestsFor(w.name, 8) != nil {
		t.Error("digests recorded at seed 7 were applied at seed 8")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the same
// workloads, the same metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []bound `json:"end_to_end"`
		PerLayer  []bound `json:"per_layer"`
	}
	if err := readJSON(benchmarkPath, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if got, ok := workloadByName(w.Name); !ok || got.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and workloads.go disagree", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, m := range b.EndToEnd { // TestWorkloadsSmallScale holds the program to these names
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(layerMetricDefs) {
		t.Errorf("per_layer has %d metrics, the program prints %d", len(b.PerLayer), len(layerMetricDefs))
	}
	for i, d := range layerMetricDefs {
		if i < len(b.PerLayer) && (b.PerLayer[i].Name != d.name || b.PerLayer[i].Unit != d.unit) {
			t.Errorf("per_layer[%d] = %s (%s), the program prints %s (%s)", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, d.name, d.unit)
		}
	}
}

func TestQuantileIsPythonsExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// gives [3.5, 24.0, 160.0].
	xs := []float64{512, 1, 2, 256, 4, 8, 16, 128, 32, 64}
	for i, want := range []float64{3.5, 24, 160} {
		if got := quantile(xs, float64(i+1)/4); got != want {
			t.Errorf("quartile %d = %v, want %v", i+1, got, want)
		}
	}
	if got, want := spread(xs), (160-3.5)/24; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestTailPercentile: no percentile is reported without ten samples beyond
// it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {800, 95},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if got != 50 && tc.n*(100-got) < minBeyond*100 {
			t.Errorf("tailPercentile(%d) = %d leaves fewer than %d samples beyond it", tc.n, got, minBeyond)
		}
	}
}

// TestBlockTail: the tail is each block's percentile, then the median over
// blocks, so a burst inside one block does not move it.
func TestBlockTail(t *testing.T) {
	block := make([]float64, 120)
	for i := range block {
		block[i] = float64(i + 1)
	}
	want := quantile(block, 0.9)
	var times []float64
	for range 5 {
		times = append(times, block...)
	}
	for i := 130; i < 150; i++ { // a burst over twenty runs of the second block
		times[i] *= 10
	}
	got, percentile, blocks := blockTail(times, 120)
	if got != want || percentile != 90 || blocks != 5 {
		t.Errorf("blockTail = %v (p%d of %d blocks), want %v (p90 of 5)", got, percentile, blocks, want)
	}
	if whole := quantile(times, 0.9); whole <= want {
		t.Errorf("one p90 over all the runs = %v, want it lifted past %v by the burst", whole, want)
	}
	// No block size, or one larger than the runs: one block, and the rule for
	// its sample count.
	for _, size := range []int{0, 1000} {
		if got, percentile, blocks := blockTail(block[:30], size); got != median(block[:30]) || percentile != 50 || blocks != 1 {
			t.Errorf("blockTail(30 runs, block %d) = %v (p%d of %d blocks), want the median of one block", size, got, percentile, blocks)
		}
	}
	// Runs that failed leave a short last block, which is left out.
	if _, _, blocks := blockTail(times[:590], 120); blocks != 4 {
		t.Errorf("590 runs in blocks of 120: %d blocks, want 4", blocks)
	}
}

// TestBlockSeedWalk: every tenant walks a block's seeds four times, then
// moves on to fresh ones, so each block holds the same mix of cold and cached
// runs.
func TestBlockSeedWalk(t *testing.T) {
	w := &served{c: &config{seed: 1}, cycle: 2, perSeed: 16, clients: 2}
	want := []int64{0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 3}
	for cl := range w.clients {
		for r, i := range want {
			if got := w.request(cl, r).Seed; got != 1000+i {
				t.Errorf("tenant %d run %d: seed %d, want %d", cl, r, got, 1000+i)
			}
		}
	}
	if got := w.blockRuns(); got != 16 {
		t.Errorf("blockRuns = %d, want 16", got)
	}
}

// TestBlockingSelf: each instant of a run goes to the deepest layer open
// then, parallel spans of a layer count once, and the shares add up to the
// run's wall time.
func TestBlockingSelf(t *testing.T) {
	root := span{Layer: "bench", StartUS: 0, EndUS: 1000}
	spans := []span{
		{Layer: "server", StartUS: 100, EndUS: 900},
		{Layer: "core", StartUS: 200, EndUS: 800},
		{Layer: "worker", StartUS: 300, EndUS: 600}, // two pool requests in parallel
		{Layer: "worker", StartUS: 300, EndUS: 700},
		{Layer: "evaluator", StartUS: 350, EndUS: 450},
		{Layer: "evaluator", StartUS: 400, EndUS: 500},
		{Layer: "core", StartUS: 950, EndUS: 1200}, // clipped to the root
	}
	got := blockingSelf(root, spans)
	want := map[string]float64{
		"bench":     (100 + 50) / 1e6,       // 0–100 and 900–950
		"server":    (100 + 100) / 1e6,      // 100–200 and 800–900
		"core":      (100 + 100 + 50) / 1e6, // 200–300, 700–800, 950–1000
		"worker":    (50 + 200) / 1e6,       // 300–350 and 500–700
		"evaluator": (500 - 350) / 1e6,      // the union of the two
	}
	total := 0.0
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", layer, got[layer], w)
		}
		total += got[layer]
	}
	if math.Abs(total-root.seconds()) > 1e-12 {
		t.Errorf("self times add up to %v, the run took %v", total, root.seconds())
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  string
		worse float64
	}{
		{name: "same", a: steady, b: steady, lower: true, bound: 0.1, want: verdictOK},
		{name: "within bound", a: steady, b: shift(steady, 1.05), lower: true, bound: 0.1, want: verdictOK, worse: 0.05},
		{name: "slower past the bound", a: steady, b: shift(steady, 1.2), lower: true, bound: 0.1, want: verdictRegressed, worse: 0.2},
		{name: "faster", a: steady, b: shift(steady, 0.5), lower: true, bound: 0.1, want: verdictOK, worse: -0.5},
		{name: "throughput down", a: steady, b: shift(steady, 0.8), lower: false, bound: 0.1, want: verdictRegressed, worse: 0.2},
		{name: "throughput up", a: steady, b: shift(steady, 1.3), lower: false, bound: 0.1, want: verdictOK, worse: -0.3},
		{name: "noisy and interleaved", a: noisy, b: shift(noisy, 1.05), lower: true, bound: 0.1, want: verdictUnresolved, worse: 0.05},
		{name: "noisy but every run slower", a: noisy, b: shift(noisy, 2), lower: true, bound: 0.1, want: verdictRegressed, worse: 1},
		{name: "noisy but every run faster", a: noisy, b: shift(noisy, 0.5), lower: true, bound: 0.1, want: verdictOK, worse: -0.5},
		{name: "one value each", a: []float64{1}, b: []float64{1.2}, lower: true, bound: 0.1, want: verdictRegressed, worse: 0.2},
	} {
		worse, verdict := judge(tc.a, tc.b, tc.lower, tc.bound)
		if verdict != tc.want || math.Abs(worse-tc.worse) > 1e-9 {
			t.Errorf("%s: judge = %+.3f %s, want %+.3f %s", tc.name, worse, verdict, tc.worse, tc.want)
		}
	}
}

// TestCompareFiles drives -compare end to end on two written result files.
func TestCompareFiles(t *testing.T) {
	mk := func(front, rss float64, failed int) resultFile {
		return resultFile{Sets: []resultSet{{Workloads: []workloadResult{{
			Workload: "inproc_pool192k",
			resultLine: resultLine{Correct: failed == 0, Attempted: 8, Failed: failed, Metrics: map[string]metricValue{
				"time_to_front_s": {front, "s"}, "peak_rss_mb": {rss, "MB"},
			}},
			Samples: []float64{front, front, front, front, front, front, front, front},
		}}}}}
	}
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", mk(1, 100, 0))
	for _, tc := range []struct {
		name      string
		b         resultFile
		regressed bool
		say       string
	}{
		{"unchanged", mk(1, 100, 0), false, verdictOK},
		{"slower", mk(1.5, 100, 0), true, verdictRegressed},
		{"a failed run", mk(1, 100, 1), true, "1 of 8 runs failed"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, a, write("b.json", tc.b))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !bytes.Contains(out.Bytes(), []byte(tc.say)) {
			t.Errorf("%s: regressed = %v, want %v; output:\n%s", tc.name, regressed, tc.regressed, out.String())
		}
	}
}
