package main

import (
	"bytes"
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

	// The LOAD: lines are the harness's only output: every metric CI
	// publishes must be on them.
	for _, key := range []string{"runs_per_s=", "admit_wait_p99_ms=", "max_queue_depth=", "peak_rss_mb=", "coalesce_rate="} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("LOAD: lines missing metric %q:\n%s", key, buf.String())
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
