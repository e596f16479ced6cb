package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector tracks dispatch order and completion for tests. Its start
// callback records the ticket and, unless hold is set, completes the run
// immediately (Done on a separate goroutine would race test assertions, so
// completion is explicit via release).
type collector struct {
	mu      sync.Mutex
	started []*Ticket
	aborted []*Ticket
}

func (c *collector) start(t *Ticket) {
	c.mu.Lock()
	c.started = append(c.started, t)
	c.mu.Unlock()
}

func (c *collector) abort(t *Ticket) {
	c.mu.Lock()
	c.aborted = append(c.aborted, t)
	c.mu.Unlock()
}

func (c *collector) startedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.started)
}

// waitFor polls until cond holds or the test deadline is hopeless —
// dispatch after Done happens on a fresh goroutine, so tests must wait.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestImmediateAdmission(t *testing.T) {
	s := New(Config{MaxRunning: 2})
	var c collector
	tk, err := s.Submit("a", 0, c.start, c.abort)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Immediate admission runs start synchronously, before Submit returns.
	if c.startedCount() != 1 || c.started[0] != tk {
		t.Fatalf("start not invoked synchronously with the returned ticket")
	}
	st := s.Stats()
	if st.Running != 1 || st.Dispatched != 1 || st.Submitted != 1 {
		t.Fatalf("stats after admission: %+v", st)
	}
	s.Done(tk)
	if st := s.Stats(); st.Running != 0 {
		t.Fatalf("running after Done = %d, want 0", st.Running)
	}
}

func TestQueueBoundBackpressure(t *testing.T) {
	s := New(Config{
		MaxRunning: 1,
		Quota:      TenantQuota{MaxQueued: 2},
	})
	var c collector
	run, _ := s.Submit("a", 0, c.start, c.abort)
	for i := 0; i < 2; i++ {
		if _, err := s.Submit("a", 0, c.start, c.abort); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit("a", 0, c.start, c.abort); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-queue submit error = %v, want ErrQueueFull", err)
	}
	st := s.Stats()
	if st.Queued != 2 || st.Rejected != 1 || st.MaxQueueDepth != 2 {
		t.Fatalf("stats: %+v", st)
	}
	s.Done(run)
	waitFor(t, func() bool { return c.startedCount() == 2 })
}

// TestFairShareDispatch pins the core fairness rule: when a slot frees, the
// tenant with the lowest running count wins, even if another
// tenant queued earlier.
func TestFairShareDispatch(t *testing.T) {
	s := New(Config{MaxRunning: 2})
	var c collector
	a1, _ := s.Submit("a", 0, c.start, c.abort)
	a2, _ := s.Submit("a", 0, c.start, c.abort)
	// Both slots are a's. Queue more of a (earlier) and one of b (later).
	if _, err := s.Submit("a", 0, c.start, c.abort); err != nil {
		t.Fatalf("queueing a3: %v", err)
	}
	b1, _ := s.Submit("b", 0, c.start, c.abort)
	s.Done(a1)
	waitFor(t, func() bool { return c.startedCount() == 3 })
	c.mu.Lock()
	third := c.started[2]
	c.mu.Unlock()
	if third != b1 {
		t.Fatalf("freed slot went to tenant %q, want b (zero running beats earlier enqueue)", third.tenant)
	}
	s.Done(a2)
	waitFor(t, func() bool { return c.startedCount() == 4 })
}

// TestPriorityWithinTenant: higher priority dispatches first within one
// tenant, FIFO within a class — and never affects cross-tenant order.
func TestPriorityWithinTenant(t *testing.T) {
	s := New(Config{MaxRunning: 1})
	var c collector
	run, _ := s.Submit("a", 0, c.start, c.abort)
	low, _ := s.Submit("a", 0, c.start, c.abort)
	hi, _ := s.Submit("a", 5, c.start, c.abort)
	mid, _ := s.Submit("a", 1, c.start, c.abort)
	hi2, _ := s.Submit("a", 5, c.start, c.abort)

	order := []*Ticket{hi, hi2, mid, low}
	cur := run
	for i, want := range order {
		s.Done(cur)
		waitFor(t, func() bool { return c.startedCount() == i+2 })
		c.mu.Lock()
		got := c.started[i+1]
		c.mu.Unlock()
		if got != want {
			t.Fatalf("dispatch %d: got priority %d, want %d", i+1, got.priority, want.priority)
		}
		cur = got
	}
	s.Done(cur)
}

func TestTenantRunningQuota(t *testing.T) {
	s := New(Config{
		MaxRunning: 4,
		Quota:      TenantQuota{MaxRunning: 1, MaxQueued: 8},
	})
	var c collector
	a1, _ := s.Submit("a", 0, c.start, c.abort)
	if _, err := s.Submit("a", 0, c.start, c.abort); err != nil {
		t.Fatalf("submit a2: %v", err)
	}
	// a is at its per-tenant cap even though the fleet has free slots.
	if got := c.startedCount(); got != 1 {
		t.Fatalf("started = %d, want 1 (tenant quota)", got)
	}
	// An unrelated tenant still gets a slot immediately.
	b1, _ := s.Submit("b", 0, c.start, c.abort)
	if got := c.startedCount(); got != 2 {
		t.Fatalf("started = %d, want 2", got)
	}
	s.Done(a1)
	waitFor(t, func() bool { return c.startedCount() == 3 })
	s.Done(b1)
}

func TestCancelQueued(t *testing.T) {
	s := New(Config{MaxRunning: 1})
	var c collector
	run, _ := s.Submit("a", 0, c.start, c.abort)
	q, _ := s.Submit("a", 0, c.start, c.abort)
	if !q.Cancel() {
		t.Fatal("Cancel of a queued ticket = false, want true")
	}
	if q.Cancel() {
		t.Fatal("second Cancel = true, want false")
	}
	if run.Cancel() {
		t.Fatal("Cancel of a dispatched ticket = true, want false")
	}
	s.Done(run)
	time.Sleep(10 * time.Millisecond)
	if got := c.startedCount(); got != 1 {
		t.Fatalf("cancelled ticket was dispatched (started = %d)", got)
	}
	if st := s.Stats(); st.Cancelled != 1 || st.Queued != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCloseDropsQueued(t *testing.T) {
	s := New(Config{MaxRunning: 1})
	var c collector
	run, _ := s.Submit("a", 0, c.start, c.abort)
	q, _ := s.Submit("a", 0, c.start, c.abort)
	s.Close()
	c.mu.Lock()
	aborted := append([]*Ticket(nil), c.aborted...)
	c.mu.Unlock()
	if len(aborted) != 1 || aborted[0] != q {
		t.Fatalf("aborted = %v, want the queued ticket", aborted)
	}
	if _, err := s.Submit("a", 0, c.start, c.abort); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	// Done on the still-running ticket stays valid and must not dispatch
	// anything new.
	s.Done(run)
	time.Sleep(10 * time.Millisecond)
	if got := c.startedCount(); got != 1 {
		t.Fatalf("started = %d after close, want 1", got)
	}
}

func TestStatsTenants(t *testing.T) {
	s := New(Config{MaxRunning: 1})
	var c collector
	run, _ := s.Submit("b", 0, c.start, c.abort)
	s.Submit("a", 0, c.start, c.abort)
	st := s.Stats()
	if len(st.Tenants) != 2 || st.Tenants[0].Tenant != "a" || st.Tenants[1].Tenant != "b" {
		t.Fatalf("tenants not sorted: %+v", st.Tenants)
	}
	if st.Tenants[0].Queued != 1 || st.Tenants[1].Running != 1 {
		t.Fatalf("tenant accounting: %+v", st.Tenants)
	}
	s.Done(run)
}

// TestIdleTenantsAreForgotten: any client can mint tenant ids (X-API-Key),
// so a tenant's state must not outlive its last run, however that run left
// the scheduler: finished, withdrawn from the queue, or dropped by Close.
// The scheduler-wide totals keep counting.
func TestIdleTenantsAreForgotten(t *testing.T) {
	const n = 10_000
	s := New(Config{}) // the zero config bounds nothing: all n run at once
	var c collector
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := s.Submit(fmt.Sprintf("key-%d", i), 0, c.start, c.abort)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	if st := s.Stats(); st.Running != n || len(st.Tenants) != n || st.MaxRunning != 0 {
		t.Fatalf("unbounded scheduler: running %d, tenants %d, max_running %d", st.Running, len(st.Tenants), st.MaxRunning)
	}
	for _, tk := range tickets {
		s.Done(tk)
	}
	st := s.Stats()
	if len(st.Tenants) != 0 || st.Tenants == nil {
		t.Fatalf("%d one-run tenants left %d tenant entries (nil: %v)", n, len(st.Tenants), st.Tenants == nil)
	}
	if st.Submitted != n || st.Dispatched != n || st.Running != 0 {
		t.Fatalf("totals after forgetting: %+v", st)
	}

	b := New(Config{MaxRunning: 1})
	run, _ := b.Submit("holder", 0, c.start, c.abort)
	withdrawn, _ := b.Submit("withdrawn", 0, c.start, c.abort)
	b.Submit("dropped", 0, c.start, c.abort)
	if !withdrawn.Cancel() {
		t.Fatal("queued ticket did not cancel")
	}
	b.Close()
	if st := b.Stats(); len(st.Tenants) != 1 || st.Tenants[0].Tenant != "holder" {
		t.Fatalf("tenants after cancel + close = %+v, want only the running one", st.Tenants)
	}
	b.Done(run)
	if st := b.Stats(); len(st.Tenants) != 0 || st.Cancelled != 2 {
		t.Fatalf("after the last Done: %+v", st)
	}
}

// TestSoakFairShare is the S1 soak: three tenants with skewed offered load
// hammer one scheduler; every tenant keeps its queue non-empty (all are
// oversubscribed), so fair-share admission must split dispatches near
// evenly — and nobody starves. Run under -race in CI.
func TestSoakFairShare(t *testing.T) {
	const (
		tenants      = 3
		target       = 600 // total dispatches before the soak stops
		fleetSlots   = 8
		tolerance    = 0.35 // |share - 1/3| relative tolerance
		runMin       = time.Millisecond
		runSpread    = 2 * time.Millisecond
		backlogLimit = 32
	)
	s := New(Config{
		MaxRunning: fleetSlots,
		Quota:      TenantQuota{MaxQueued: backlogLimit},
	})
	var (
		dispatched [tenants]atomic.Int64
		total      atomic.Int64
		seq        atomic.Uint64  // per-dispatch sequence, spreads run durations
		wg         sync.WaitGroup // in-flight simulated runs
		subWG      sync.WaitGroup // submitter goroutines
	)
	names := [tenants]string{"aggressive", "steady", "meek"}
	// Offered-load skew: the aggressive tenant submits ~10× faster than the
	// meek one; with ~2ms mean runs over 8 slots, even the meek tenant's
	// offered load exceeds its 1/3 share, so every queue stays busy.
	pause := [tenants]time.Duration{50 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond}
	for i := 0; i < tenants; i++ {
		i := i
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			for total.Load() < target {
				wg.Add(1)
				_, err := s.Submit(names[i], 0, func(tk *Ticket) {
					dispatched[i].Add(1)
					total.Add(1)
					n := seq.Add(1)
					go func() {
						defer wg.Done()
						time.Sleep(runMin + time.Duration((n*7919)%uint64(runSpread)))
						s.Done(tk)
					}()
				}, func(*Ticket) { wg.Done() })
				if err != nil {
					wg.Done() // rejected: the callback will never run
				}
				time.Sleep(pause[i])
			}
		}()
	}
	subWG.Wait()
	s.Close() // drop any still-queued tickets so wg can drain
	wg.Wait()

	sum := int64(0)
	for i := range dispatched {
		n := dispatched[i].Load()
		if n == 0 {
			t.Fatalf("tenant %s starved: 0 dispatches", names[i])
		}
		sum += n
	}
	for i := range dispatched {
		share := float64(dispatched[i].Load()) / float64(sum)
		if share < (1.0/tenants)*(1-tolerance) || share > (1.0/tenants)*(1+tolerance) {
			t.Errorf("tenant %s share = %.3f, want 1/3 ± %.0f%% (dispatched %d of %d)",
				names[i], share, tolerance*100, dispatched[i].Load(), sum)
		}
	}
	st := s.Stats()
	if st.Dispatched < target {
		t.Fatalf("dispatched %d < target %d", st.Dispatched, target)
	}
	t.Logf("soak: %d dispatched, shares %.3f/%.3f/%.3f, p99 wait %.2fms, max depth %d",
		sum,
		float64(dispatched[0].Load())/float64(sum),
		float64(dispatched[1].Load())/float64(sum),
		float64(dispatched[2].Load())/float64(sum),
		st.WaitP99MS, st.MaxQueueDepth)
}
