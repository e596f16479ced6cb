package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/param"
	"repro/internal/slambench"
)

func testOpts(t *testing.T) Options {
	t.Helper()
	return Options{Scale: ScaleTest, Seed: 1, OutDir: t.TempDir()}
}

func TestFig1TestScale(t *testing.T) {
	opts := testOpts(t)
	res, err := Fig1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MuValues) != 3 || len(res.ICPValues) != 3 {
		t.Fatalf("grid %dx%d", len(res.MuValues), len(res.ICPValues))
	}
	if len(res.RuntimeMs) != 3 || len(res.RuntimeMs[0]) != 3 {
		t.Fatal("surface shape wrong")
	}
	for i := range res.RuntimeMs {
		for j := range res.RuntimeMs[i] {
			if res.RuntimeMs[i][j] <= 0 {
				t.Fatalf("runtime[%d][%d] = %v", i, j, res.RuntimeMs[i][j])
			}
		}
	}
	// Fig. 1's whole point: the surface varies in both axes.
	if !nonTrivial(res) {
		t.Fatal("response surface is flat — µ and icp-threshold have no effect")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Fig. 1") {
		t.Fatal("render missing title")
	}
	assertCSV(t, opts.OutDir, "fig1_response_surface.csv")
}

// nonTrivial reports whether the surface varies by more than 5 % along
// both axes: some µ row and some threshold column span a max/min ratio
// above 1.05 (runtimes are positive).
func nonTrivial(r *Fig1Result) bool {
	rows, cols := 1.0, 1.0
	for i := range r.MuValues {
		for j := range r.ICPValues {
			for k := range r.ICPValues {
				rows = max(rows, r.RuntimeMs[i][j]/r.RuntimeMs[i][k])
			}
			for k := range r.MuValues {
				cols = max(cols, r.RuntimeMs[i][j]/r.RuntimeMs[k][j])
			}
		}
	}
	return rows > 1.05 && cols > 1.05
}

func TestFig3TestScale(t *testing.T) {
	opts := testOpts(t)
	res, err := Fig3(opts, "ODROID-XU3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "kfusion" || res.Platform != "ODROID-XU3" {
		t.Fatalf("identity: %s/%s", res.Benchmark, res.Platform)
	}
	if res.FrontSize == 0 {
		t.Fatal("empty front")
	}
	if res.DefaultRuntime <= 0 || res.DefaultAccuracy <= 0 {
		t.Fatal("default point missing")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "kfusion on ODROID-XU3") {
		t.Fatalf("render:\n%s", buf.String())
	}
	assertCSV(t, opts.OutDir, "fig3a_kfusion_ODROID-XU3_samples.csv")
	assertCSV(t, opts.OutDir, "fig3a_kfusion_ODROID-XU3_front.csv")
}

func TestFig3UnknownPlatform(t *testing.T) {
	if _, err := Fig3(testOpts(t), "nope"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

// cancellingBench cancels a context when its n-th evaluation starts.
type cancellingBench struct {
	slambench.Benchmark
	calls  atomic.Int32
	after  int32
	cancel context.CancelFunc
}

func (b *cancellingBench) Evaluate(cfg param.Config, dev device.Model) (slambench.Metrics, error) {
	if b.calls.Add(1) == b.after {
		b.cancel()
	}
	return b.Benchmark.Evaluate(cfg, dev)
}

// A cancelled exploration (cmd/hypermapper's Ctrl-C) still comes back as a
// DSEResult over what it did measure, beside the context's error.
func TestRunDSECancelledReturnsPartial(t *testing.T) {
	kf, err := slambench.ByName("kfusion", "test")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bench := &cancellingBench{Benchmark: kf, after: 6, cancel: cancel}
	budget := Options{Scale: ScaleTest}.withDefaults().dseBudget(false)
	budget.Workers = 2
	res, err := RunDSE(ctx, bench, device.ODROIDXU3(), slambench.RuntimeAccuracy, budget)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	if n := len(res.Run.Samples); n == 0 || n >= budget.RandomSamples {
		t.Fatalf("partial result has %d samples of a %d-sample bootstrap", n, budget.RandomSamples)
	}
	if res.FrontSize == 0 || res.DefaultRuntime <= 0 {
		t.Fatalf("partial result not summarised: front %d, default %v", res.FrontSize, res.DefaultRuntime)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "samples: ") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

// cmd/hypermapper -power: three objectives flow through the summary and
// both CSVs.
func TestRunDSEWithPower(t *testing.T) {
	bench, err := slambench.ByName("kfusion", "test")
	if err != nil {
		t.Fatal(err)
	}
	budget := Options{Scale: ScaleTest}.withDefaults().dseBudget(false)
	res, err := RunDSE(context.Background(), bench, device.ODROIDXU3(), slambench.RuntimeAccuracyPower, budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Run.Samples {
		if len(s.Objs) != 3 {
			t.Fatalf("sample has %d objectives", len(s.Objs))
		}
	}
	if forests, err := res.Run.Forests(); err != nil || len(forests) != 3 {
		t.Fatalf("%d forests (%v)", len(forests), err)
	}
	dir := t.TempDir()
	if err := res.WriteCSV(dir, "power"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"power_samples.csv", "power_front.csv"} {
		assertCSV(t, dir, name)
		data, _ := os.ReadFile(filepath.Join(dir, name))
		header, _, _ := strings.Cut(string(data), "\n")
		if !strings.HasSuffix(header, "runtime_s_per_frame,accuracy_ate_m,power_w") {
			t.Fatalf("%s header %q", name, header)
		}
	}
}

func TestFig4AndTable1TestScale(t *testing.T) {
	opts := testOpts(t)
	res, err := Fig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "elasticfusion" {
		t.Fatal("wrong benchmark")
	}
	tab, err := Table1(opts, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatalf("table has %d rows", len(tab.Rows))
	}
	if tab.Rows[0].Label != "Default" {
		t.Fatal("first row must be the default")
	}
	if tab.Rows[0].ICP != 10 || tab.Rows[0].Depth != 3 || tab.Rows[0].Confidence != 10 {
		t.Fatalf("default row wrong: %+v", tab.Rows[0])
	}
	// Front rows must be sorted by runtime ascending (front ordering).
	for i := 2; i < len(tab.Rows); i++ {
		if tab.Rows[i].RuntimeS < tab.Rows[i-1].RuntimeS {
			t.Fatal("front rows out of order")
		}
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatal("render missing title")
	}
	assertCSV(t, opts.OutDir, "table1_elasticfusion_pareto.csv")
}

func TestFig5TestScale(t *testing.T) {
	opts := testOpts(t)
	res, err := Fig5(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Speedups) != 12 { // test scale uses 12 devices
		t.Fatalf("%d devices", len(res.Speedups))
	}
	for i := 1; i < len(res.Speedups); i++ {
		if res.Speedups[i] < res.Speedups[i-1] {
			t.Fatal("speedups not sorted")
		}
	}
	if res.MinSpeedup <= 0 || res.MaxSpeedup < res.MinSpeedup {
		t.Fatalf("speedup range [%v, %v]", res.MinSpeedup, res.MaxSpeedup)
	}
	// §IV-D: strong rank correlation across similar (ARM) devices.
	if res.SpearmanToODROID < 0.5 {
		t.Fatalf("Spearman %v too weak — transfer argument broken", res.SpearmanToODROID)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Fig. 5") {
		t.Fatal("render missing title")
	}
	assertCSV(t, opts.OutDir, "fig5_crowdsourcing.csv")
}

func TestPickFrontRows(t *testing.T) {
	if got := pickFrontRows(0, 4); got != nil {
		t.Fatalf("empty front: %v", got)
	}
	if got := pickFrontRows(3, 4); len(got) != 3 {
		t.Fatalf("small front: %v", got)
	}
	got := pickFrontRows(100, 4)
	if len(got) != 4 || got[0] != 0 || got[3] != 99 {
		t.Fatalf("extremes not kept: %v", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != ScaleQuick || o.Seed != 1 {
		t.Fatalf("defaults: %+v", o)
	}
	if (Options{Scale: ScaleTest}).withDefaults().datasetScale() != "test" {
		t.Fatal("test scale should use the test dataset")
	}
	if (Options{Scale: ScaleQuick}).withDefaults().datasetScale() != "dse" {
		t.Fatal("quick scale should use the halved DSE dataset")
	}
	if (Options{Scale: ScaleFull}).withDefaults().datasetScale() != "full" {
		t.Fatal("full scale should use the reference dataset")
	}
}

func TestDSEBudgetScaling(t *testing.T) {
	full := (Options{Scale: ScaleFull}).withDefaults().dseBudget(false)
	if full.RandomSamples != 3000 || full.MaxIterations != 6 || full.MaxBatch != 300 {
		t.Fatalf("full KF budget: %+v", full)
	}
	fullEF := (Options{Scale: ScaleFull}).withDefaults().dseBudget(true)
	if fullEF.RandomSamples != 2400 {
		t.Fatalf("full EF budget: %+v", fullEF)
	}
	testB := (Options{Scale: ScaleTest}).withDefaults().dseBudget(false)
	if testB.RandomSamples >= 100 {
		t.Fatalf("test budget too large: %+v", testB)
	}
}

func TestWriteCSVNoDir(t *testing.T) {
	// No output directory: writes are no-ops.
	if err := writeCSV("", "x.csv", []string{"a"}, nil); err != nil {
		t.Fatal(err)
	}
}

func assertCSV(t *testing.T, dir, name string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("missing CSV %s: %v", name, err)
	}
	if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 2 {
		t.Fatalf("CSV %s has no data rows", name)
	}
}
