package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCrowdSmoke runs a small crowd end-to-end against an embedded daemon:
// real HTTP, real scheduler, real engine runs. It asserts the same
// properties the full harness does, scaled down to CI time.
func TestCrowdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("crowd smoke needs a few seconds of wall clock")
	}
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	cfg := config{
		Clients:          400,
		Tenants:          3,
		Duration:         4 * time.Second,
		Grace:            10 * time.Second,
		Seed:             1,
		Problem:          "synthetic",
		MaxRunning:       8,
		TenantMaxRunning: 4,
		TenantMaxQueued:  64,
		RunSeeds:         4,
		P99BoundMS:       30_000,
		RSSBoundMB:       0, // the test binary shares RSS with the test runner
		RequireCoalesce:  true,
		Out:              out,
	}
	var buf bytes.Buffer
	rep, err := run(cfg, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("assertions failed: %v\n%s", rep.Failures, buf.String())
	}
	if rep.Completed == 0 {
		t.Fatal("no runs completed")
	}
	for i, n := range rep.ByTenant {
		if n == 0 {
			t.Errorf("tenant-%d starved: 0 completions", i)
		}
	}
	if rep.CoalesceHits == 0 {
		t.Error("duplicate-seed crowd produced no coalesce hits")
	}
	if !strings.Contains(buf.String(), "LOAD: PASS") {
		t.Errorf("missing PASS line in output:\n%s", buf.String())
	}

	// The artifact must parse as a benchBaseline with the metrics CI
	// publishes.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading artifact: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(base.Results) != 1 || base.Results[0].Name != "LoadHarness/crowd" {
		t.Fatalf("unexpected artifact shape: %+v", base)
	}
	for _, key := range []string{"runs/s", "admit-wait-p99-ms", "max-queue-depth", "peak-rss-mb", "coalesce-rate"} {
		if _, ok := base.Results[0].Metrics[key]; !ok {
			t.Errorf("artifact missing metric %q", key)
		}
	}
}

// TestQuantile pins the quantile helper's edge cases.
func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.99); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	xs := []float64{5, 1, 3, 2, 4}
	if q := quantile(xs, 0); q != 1 {
		t.Fatalf("p0 = %v, want 1", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Fatalf("p100 = %v, want 5", q)
	}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("p50 = %v, want 3", q)
	}
}
