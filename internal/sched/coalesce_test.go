package sched

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/param"
)

// fakeBackend records every combined batch it receives and answers with a
// deterministic, space-identifying value per configuration.
type fakeBackend struct {
	tag   float64 // added to every objective, identifies which backend answered
	mu    sync.Mutex
	calls [][]param.Config
}

func (b *fakeBackend) EvaluateBatch(_ context.Context, cfgs []param.Config) ([][]float64, error) {
	b.mu.Lock()
	b.calls = append(b.calls, cfgs)
	b.mu.Unlock()
	out := make([][]float64, len(cfgs))
	for i, cfg := range cfgs {
		sum := b.tag
		for _, v := range cfg {
			sum += v
		}
		out[i] = []float64{sum}
	}
	return out, nil
}

func (b *fakeBackend) callCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.calls)
}

func coalesceSpace(t *testing.T) *param.Space {
	t.Helper()
	space, err := param.NewSpace(
		param.Grid("x", 0, 3, 4),
		param.Levels("z", 1, 2, 4),
	)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// TestCoalescerMergesAndDedups: two concurrent calls sharing a config land
// in one combined backend dispatch, the shared config is evaluated once,
// and each caller gets position-matched results as if it ran alone.
func TestCoalescerMergesAndDedups(t *testing.T) {
	space := coalesceSpace(t)
	inner := &fakeBackend{}
	c := NewCoalescer(space, inner, 50*time.Millisecond)

	shared := space.AtIndex(0)
	a := []param.Config{shared, space.AtIndex(1)}
	b := []param.Config{space.AtIndex(2), shared}

	var (
		wg         sync.WaitGroup
		resA, resB [][]float64
		errA, errB error
	)
	wg.Add(2)
	go func() { defer wg.Done(); resA, errA = c.EvaluateBatch(context.Background(), a) }()
	go func() { defer wg.Done(); resB, errB = c.EvaluateBatch(context.Background(), b) }()
	wg.Wait()

	if errA != nil || errB != nil {
		t.Fatalf("errors: %v / %v", errA, errB)
	}
	if n := inner.callCount(); n != 1 {
		t.Fatalf("backend calls = %d, want 1 merged dispatch", n)
	}
	inner.mu.Lock()
	combined := len(inner.calls[0])
	inner.mu.Unlock()
	if combined != 3 {
		t.Fatalf("combined batch has %d configs, want 3 (4 submitted, 1 deduped)", combined)
	}
	// Position-matched results: each slot equals the caller's own config sum.
	check := func(name string, cfgs []param.Config, res [][]float64) {
		t.Helper()
		for i, cfg := range cfgs {
			want := 0.0
			for _, v := range cfg {
				want += v
			}
			if len(res[i]) != 1 || res[i][0] != want {
				t.Fatalf("%s result %d = %v, want [%v]", name, i, res[i], want)
			}
		}
	}
	check("a", a, resA)
	check("b", b, resB)

	st := c.Stats()
	if st.Calls != 2 || st.Flushes != 1 || st.MergedCalls != 2 || st.Configs != 4 || st.Deduped != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCoalescerForeignConfigRejected: a configuration outside the
// coalescer's space fails the whole call before anything reaches the
// backend — the isolation guarantee that makes cross-space mixing
// impossible.
func TestCoalescerForeignConfigRejected(t *testing.T) {
	space := coalesceSpace(t)
	inner := &fakeBackend{}
	c := NewCoalescer(space, inner, -1)

	foreign := param.Config{99, 99} // right dimension, values not on the grid
	_, err := c.EvaluateBatch(context.Background(), []param.Config{space.AtIndex(0), foreign})
	if err == nil || !strings.Contains(err.Error(), "not in this coalescer's space") {
		t.Fatalf("foreign config error = %v", err)
	}
	if inner.callCount() != 0 {
		t.Fatal("backend was called despite the foreign config")
	}
}

// TestCoalescerDisabledWindow: window ≤ 0 flushes every call by itself —
// no cross-call merging, but within-call duplicates still collapse.
func TestCoalescerDisabledWindow(t *testing.T) {
	space := coalesceSpace(t)
	inner := &fakeBackend{}
	c := NewCoalescer(space, inner, 0)

	dup := space.AtIndex(3)
	res, err := c.EvaluateBatch(context.Background(), []param.Config{dup, dup})
	if err != nil {
		t.Fatal(err)
	}
	if res[0][0] != res[1][0] {
		t.Fatalf("duplicate slots disagree: %v", res)
	}
	if _, err := c.EvaluateBatch(context.Background(), []param.Config{space.AtIndex(1)}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Flushes != 2 || st.MergedCalls != 0 || st.Deduped != 1 {
		t.Fatalf("stats: %+v (want one flush per call, 1 within-call dedup)", st)
	}
	inner.mu.Lock()
	firstLen := len(inner.calls[0])
	inner.mu.Unlock()
	if firstLen != 1 {
		t.Fatalf("first dispatch carried %d configs, want 1 (within-call dedup)", firstLen)
	}
}

// TestCoalescerMemberCancellation: a cancelled member gets its context
// error and nil results; the other members of the same merge still get
// real results.
func TestCoalescerMemberCancellation(t *testing.T) {
	space := coalesceSpace(t)
	inner := &fakeBackend{}
	c := NewCoalescer(space, inner, 20*time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the member must not block for the window
	res, err := c.EvaluateBatch(ctx, []param.Config{space.AtIndex(0)})
	if err != context.Canceled {
		t.Fatalf("cancelled member error = %v, want context.Canceled", err)
	}
	if len(res) != 1 || res[0] != nil {
		t.Fatalf("cancelled member results = %v, want [nil]", res)
	}

	// The merge the cancelled member opened still completes for a live one.
	live, err := c.EvaluateBatch(context.Background(), []param.Config{space.AtIndex(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 || live[0] == nil {
		t.Fatalf("live member got no results: %v", live)
	}
}

// TestCoalescerLookAlikeConfigsKeepTheirBackend is the S2 regression at the
// coalescer: two coalescers over spaces whose configurations encode
// identically, each over its own backend (as the daemon builds one per
// registered problem), must answer a byte-identical configuration from
// their own backend — results cannot mix across runs whose configs happen
// to look alike.
func TestCoalescerLookAlikeConfigsKeepTheirBackend(t *testing.T) {
	// Same dimension, same grid values — only the parameter names differ.
	s1 := coalesceSpace(t)
	s2, err := param.NewSpace(param.Grid("other", 0, 3, 4), param.Levels("w", 1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCoalescer(s1, &fakeBackend{tag: 1000}, -1) // merging disabled: calls resolve synchronously
	c2 := NewCoalescer(s2, &fakeBackend{tag: 2000}, -1)

	cfg := s1.AtIndex(0)
	r1, err := c1.EvaluateBatch(context.Background(), []param.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.EvaluateBatch(context.Background(), []param.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if r1[0][0] < 1000 || r1[0][0] >= 2000 {
		t.Fatalf("run 1 result %v did not come from backend 1", r1[0])
	}
	if r2[0][0] < 2000 {
		t.Fatalf("run 2 result %v did not come from backend 2", r2[0])
	}
}
