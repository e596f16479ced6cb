package worker

import (
	"context"
	"testing"
	"time"

	"repro/internal/param"
)

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(nil, Options{}); err == nil {
		t.Fatal("empty pool should not construct")
	}
	if _, err := NewPool([]string{"  "}, Options{}); err == nil {
		t.Fatal("blank URL should not construct")
	}
	p, err := NewPool([]string{"http://a:1/", "http://b:2"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2 {
		t.Fatalf("Size = %d", p.Size())
	}
	if st := p.Stats(); st[0].URL != "http://a:1" {
		t.Fatalf("trailing slash not trimmed: %q", st[0].URL)
	}
	if p.opts.ChunkSize != defaultChunkSize || p.opts.Retries != defaultRetries {
		t.Fatalf("defaults not applied: %+v", p.opts)
	}
}

func TestPickSkipsAvoidedWorkers(t *testing.T) {
	p, err := NewPool([]string{"http://a", "http://b", "http://c"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got := p.pick(map[int]bool{1: true}); got == 1 {
			t.Fatal("pick returned an avoided worker")
		}
	}
	// Multiple avoided workers: the one untried worker must be chosen.
	for i := 0; i < 20; i++ {
		if got := p.pick(map[int]bool{0: true, 2: true}); got != 1 {
			t.Fatalf("pick = %d, want the only untried worker 1", got)
		}
	}
	// Fully avoided pool degrades to round-robin instead of spinning.
	seen := map[int]bool{}
	for i := 0; i < 20; i++ {
		seen[p.pick(map[int]bool{0: true, 1: true, 2: true})] = true
	}
	if len(seen) != 3 {
		t.Fatalf("fully-avoided pick covered %v, want all workers", seen)
	}
	// A single-worker pool has no alternative: avoid is ignored.
	solo, err := NewPool([]string{"http://a"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := solo.pick(map[int]bool{0: true}); got != 0 {
		t.Fatalf("solo pick = %d", got)
	}
}

func TestHedgeDelayAdaptiveQuantile(t *testing.T) {
	p, err := NewPool([]string{"http://a", "http://b"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := p.hedgeDelay("slam", 1); d != 0 {
		t.Fatalf("hedge with no latency samples: %v", d)
	}
	for i := 1; i <= hedgeMinSamples; i++ {
		p.window("slam").record(time.Duration(i) * time.Millisecond)
	}
	d := p.hedgeDelay("slam", 1)
	if d <= 0 || d > hedgeMinSamples*time.Millisecond {
		t.Fatalf("adaptive hedge delay = %v, want within the observed window", d)
	}

	// The window's unit is one configuration: a request's threshold is the
	// quantile × its size, so a 4-configuration chunk and a 32-configuration
	// chunk arm their timers in ratio 1 : 8.
	if d4, d32 := p.hedgeDelay("slam", 4), p.hedgeDelay("slam", 32); d4 != 4*d || d32 != 8*d4 {
		t.Fatalf("hedge delay for 1 / 4 / 32 configurations = %v / %v / %v, want 1 : 4 : 32", d, d4, d32)
	}

	// Windows are per problem: a fast problem's warmed-up window must not
	// set the hedge threshold for a slow problem sharing the pool.
	if d := p.hedgeDelay("synthetic", 32); d != 0 {
		t.Fatalf("unwarmed problem inherited another problem's window: %v", d)
	}

	// Fixed threshold takes precedence, whatever the request's size;
	// negative disables hedging.
	p.opts.HedgeAfter = 7 * time.Millisecond
	for _, n := range []int{4, 32} {
		if d := p.hedgeDelay("slam", n); d != 7*time.Millisecond {
			t.Fatalf("fixed hedge delay for %d configurations = %v", n, d)
		}
	}
	p.opts.HedgeAfter = -1
	if d := p.hedgeDelay("slam", 32); d != 0 {
		t.Fatalf("disabled hedge delay = %v", d)
	}
}

func TestLatencyWindowWraps(t *testing.T) {
	p, err := NewPool([]string{"http://a", "http://b"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := p.window("x")
	for i := 0; i < latencyWindowSize+10; i++ {
		w.record(time.Millisecond)
	}
	if len(w.lat) != latencyWindowSize {
		t.Fatalf("window grew to %d", len(w.lat))
	}
	if w.n != latencyWindowSize+10 {
		t.Fatalf("n = %d", w.n)
	}
}

func TestRemoteBackendEmptyBatch(t *testing.T) {
	p, err := NewPool([]string{"http://nowhere.invalid"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Backend("test", 2).EvaluateBatch(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
	// A pre-cancelled context short-circuits before any dial.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Backend("test", 2).EvaluateBatch(ctx, []param.Config{{1}}); err == nil {
		t.Fatal("pre-cancelled batch should error")
	}
}
