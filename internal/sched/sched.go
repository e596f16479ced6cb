// Package sched is the fleet-wide run scheduler of the coordinator: it sits
// between the server's session manager and the engine and decides, for every
// POST /runs, whether the run starts now, waits in a bounded per-tenant
// queue, or is rejected with backpressure.
//
// The paper's crowd-sourcing scenario (Fig. 5) implies many independent
// clients feeding one DSE coordinator. With no bounds configured every
// submission is admitted on the spot and the runs compete blindly for the
// worker fleet: one aggressive tenant can occupy every evaluation slot and
// starve the rest. Given bounds, the scheduler enforces three policies:
//
//   - Fair-share admission: when a slot frees, the next run is taken from
//     the tenant with the lowest running count, so concurrent capacity
//     divides evenly across tenants with pending work, regardless of how
//     fast each one submits. Within one tenant, higher Priority runs
//     dispatch first, FIFO within a priority class — priority never
//     crosses tenant boundaries, so a tenant cannot starve others by
//     marking everything urgent.
//   - Quotas: per-tenant concurrent-run and queue-depth caps bound what any
//     single tenant can hold, and MaxRunning bounds the fleet.
//   - Backpressure: a submission past a full tenant queue fails with
//     ErrQueueFull, which the HTTP layer maps to 429 + Retry-After. Clients
//     are expected to back off and retry; nothing is buffered unboundedly.
//
// Starvation-freedom follows from the dispatch rule: a tenant with queued
// work and zero running runs has the minimum possible load, so it is always
// among the first picked when a slot frees.
//
// The scheduler is deliberately engine-agnostic: it hands out start
// callbacks and is told via Done when a run finished. coalesce.go is the
// second half of the package — cross-run evaluation-batch coalescing onto a
// shared backend.
package sched

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"time"
)

// ErrQueueFull reports a submission rejected because the tenant's admission
// queue is at capacity. The HTTP layer maps it to 429 Too Many Requests
// with a Retry-After header.
var ErrQueueFull = errors.New("tenant admission queue is full")

// ErrClosed reports a submission after Close.
var ErrClosed = errors.New("scheduler is closed")

// TenantQuota bounds one tenant's footprint on the coordinator.
type TenantQuota struct {
	// MaxRunning caps the tenant's concurrently running runs; 0 means the
	// tenant is bounded only by the fleet-wide MaxRunning.
	MaxRunning int
	// MaxQueued caps the tenant's admission queue; 0 selects the default
	// (DefaultMaxQueued). Submissions past the cap fail with ErrQueueFull.
	MaxQueued int
}

// Defaults for the zero Config; see Config.
const (
	DefaultMaxQueued  = 64
	DefaultRetryAfter = time.Second
)

// Config configures a Scheduler. The zero value bounds nothing: every
// submission is admitted inside Submit and no queue ever forms.
type Config struct {
	// MaxRunning bounds concurrently running runs across all tenants; 0
	// means no fleet-wide bound.
	MaxRunning int
	// Quota is the per-tenant quota, the same for every tenant.
	Quota TenantQuota
	// RetryAfter is the backoff hint attached to ErrQueueFull rejections
	// (the HTTP Retry-After header value; default DefaultRetryAfter).
	RetryAfter time.Duration
}

// RetryAfterHint returns the configured backoff hint for rejections.
func (c Config) RetryAfterHint() time.Duration {
	if c.RetryAfter <= 0 {
		return DefaultRetryAfter
	}
	return c.RetryAfter
}

// ticketState is a Ticket's lifecycle; transitions are guarded by the
// scheduler mutex so exactly one of dispatch and cancel wins.
type ticketState int

const (
	ticketQueued ticketState = iota
	ticketRunning
	ticketDone
	ticketCancelled
)

// Ticket is one submitted run's handle: the scheduler dispatches it (calls
// its start callback) when admission succeeds, and the owner reports
// completion via Done or withdraws it via Cancel.
type Ticket struct {
	tenant   string
	priority int
	start    func(*Ticket) // invoked exactly once, off the scheduler lock
	abort    func(*Ticket) // invoked exactly once if Close drops the ticket while queued
	enqueued time.Time

	s     *Scheduler
	state ticketState
}

// Cancel withdraws a still-queued ticket. It reports true when the ticket
// was dequeued before dispatch — the caller owns the cleanup (the start
// callback will never run). False means the ticket already dispatched (or
// was already cancelled); the run must be stopped through its own context.
func (t *Ticket) Cancel() bool {
	s := t.s
	s.mu.Lock()
	if t.state != ticketQueued {
		s.mu.Unlock()
		return false
	}
	t.state = ticketCancelled
	ts := s.tenants[t.tenant]
	if i := slices.Index(ts.queue, t); i >= 0 {
		ts.queue = slices.Delete(ts.queue, i, i+1)
	}
	s.cancelled++
	s.forgetIdleLocked(ts)
	s.mu.Unlock()
	return true
}

// tenantState is one tenant's live accounting. It exists only while the
// tenant has a run running or queued: any client can mint tenant ids, so
// idle ones are forgotten (forgetIdleLocked) and only the scheduler-wide
// totals outlive them.
type tenantState struct {
	name       string
	queue      []*Ticket // priority-ordered, FIFO within a priority class
	running    int
	dispatched int64
	rejected   int64
}

// Scheduler implements fair-share admission across tenants. Safe for
// concurrent use.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	tenants  map[string]*tenantState
	running  int
	closed   bool
	maxDepth int // high-water mark of the total queued count

	submitted  int64
	dispatched int64
	rejected   int64
	cancelled  int64

	waits waitRing
}

// New returns a scheduler over cfg.
func New(cfg Config) *Scheduler {
	if cfg.Quota.MaxQueued <= 0 {
		cfg.Quota.MaxQueued = DefaultMaxQueued
	}
	return &Scheduler{cfg: cfg, tenants: make(map[string]*tenantState)}
}

// Submit asks to admit one run for tenant. If capacity allows, the run is
// dispatched before Submit returns: start runs synchronously in the caller.
// Otherwise the run waits in the tenant's queue and start runs later, on
// whatever goroutine frees the slot. abort runs instead of start if Close
// drops the ticket while still queued. Both callbacks receive the ticket —
// on the immediate path it runs before Submit has returned it.
//
// The caller must call Done(ticket) when a dispatched run finishes (however
// it ends); a queued ticket withdrawn via Cancel must NOT be Done'd.
func (s *Scheduler) Submit(tenant string, priority int, start, abort func(*Ticket)) (*Ticket, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.submitted++
	ts := s.tenant(tenant)
	t := &Ticket{tenant: tenant, priority: priority, start: start, abort: abort, enqueued: time.Now(), s: s}
	if s.fleetCanRun() && s.tenantCanRun(ts) && len(ts.queue) == 0 {
		// Immediate admission. The queue-empty condition keeps FIFO order
		// within the tenant: free slots with a non-empty tenant queue can
		// only coexist transiently (dispatch drains queues whenever slots
		// free), but a fresh submission must still not overtake it.
		s.admitLocked(ts, t)
		s.mu.Unlock()
		t.start(t)
		return t, nil
	}
	if len(ts.queue) >= s.cfg.Quota.MaxQueued {
		ts.rejected++
		s.rejected++
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.enqueueLocked(ts, t)
	s.mu.Unlock()
	return t, nil
}

// Done releases a dispatched run's slot and dispatches queued work that the
// freed capacity admits. Must be called exactly once per dispatched ticket.
func (s *Scheduler) Done(t *Ticket) {
	s.mu.Lock()
	if t.state == ticketRunning {
		t.state = ticketDone
		s.running--
		s.tenants[t.tenant].running-- // present: a running ticket keeps its tenant
	}
	next := s.dispatchLocked()
	if ts := s.tenants[t.tenant]; ts != nil {
		s.forgetIdleLocked(ts) // after dispatch, which may have restarted it
	}
	s.mu.Unlock()
	for _, n := range next {
		go n.start(n)
	}
}

// Close refuses further submissions and drops every queued ticket, running
// each one's abort callback. Dispatched runs are untouched — stopping them
// is the owner's job; their Done calls remain valid.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var dropped []*Ticket
	for _, ts := range s.tenants {
		for _, t := range ts.queue {
			t.state = ticketCancelled
			s.cancelled++
			dropped = append(dropped, t)
		}
		ts.queue = nil
		s.forgetIdleLocked(ts)
	}
	s.mu.Unlock()
	for _, t := range dropped {
		if t.abort != nil {
			t.abort(t)
		}
	}
}

// tenant returns (creating if needed) a tenant's state. Called under mu.
func (s *Scheduler) tenant(name string) *tenantState {
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenantState{name: name}
		s.tenants[name] = ts
	}
	return ts
}

// forgetIdleLocked drops a tenant with nothing running and nothing queued.
func (s *Scheduler) forgetIdleLocked(ts *tenantState) {
	if ts.running == 0 && len(ts.queue) == 0 {
		delete(s.tenants, ts.name)
	}
}

// fleetCanRun reports whether the fleet-wide bound admits one more run.
// Called under mu.
func (s *Scheduler) fleetCanRun() bool {
	return s.cfg.MaxRunning <= 0 || s.running < s.cfg.MaxRunning
}

// tenantCanRun reports whether the tenant is under its concurrent cap.
// Called under mu.
func (s *Scheduler) tenantCanRun(ts *tenantState) bool {
	return s.cfg.Quota.MaxRunning <= 0 || ts.running < s.cfg.Quota.MaxRunning
}

// admitLocked moves a ticket to running and records its wait.
func (s *Scheduler) admitLocked(ts *tenantState, t *Ticket) {
	t.state = ticketRunning
	s.running++
	ts.running++
	ts.dispatched++
	s.dispatched++
	s.waits.record(time.Since(t.enqueued))
}

// enqueueLocked inserts a ticket into its tenant's queue: higher priority
// first, FIFO within a priority class.
func (s *Scheduler) enqueueLocked(ts *tenantState, t *Ticket) {
	i := len(ts.queue)
	for i > 0 && ts.queue[i-1].priority < t.priority {
		i--
	}
	ts.queue = slices.Insert(ts.queue, i, t)
	if d := s.queuedLocked(); d > s.maxDepth {
		s.maxDepth = d
	}
}

func (s *Scheduler) queuedLocked() int {
	n := 0
	for _, ts := range s.tenants {
		n += len(ts.queue)
	}
	return n
}

// dispatchLocked fills free slots from the queues: repeatedly pick, among
// tenants with queued work and headroom under their own cap, the one with
// the lowest running count (ties: longest-waiting head first, then
// tenant name, for determinism). Returns the tickets to start — the caller
// invokes their callbacks off the lock.
func (s *Scheduler) dispatchLocked() []*Ticket {
	if s.closed {
		return nil
	}
	var out []*Ticket
	for s.fleetCanRun() {
		var pick *tenantState
		for _, ts := range s.tenants {
			if len(ts.queue) == 0 || !s.tenantCanRun(ts) {
				continue
			}
			if pick == nil || less(ts, pick) {
				pick = ts
			}
		}
		if pick == nil {
			return out
		}
		t := pick.queue[0]
		pick.queue = slices.Delete(pick.queue, 0, 1)
		s.admitLocked(pick, t)
		out = append(out, t)
	}
	return out
}

// less orders candidate tenants for the next free slot.
func less(a, b *tenantState) bool {
	if a.running != b.running {
		return a.running < b.running
	}
	ea, eb := a.queue[0].enqueued, b.queue[0].enqueued
	if !ea.Equal(eb) {
		return ea.Before(eb)
	}
	return strings.Compare(a.name, b.name) < 0
}

// waitRing is a fixed-size ring of recent admission waits (submit →
// dispatch), the basis of the p50/p99 admission-latency stats.
type waitRing struct {
	buf  [1024]time.Duration
	n    int // total recorded
	next int
}

func (r *waitRing) record(d time.Duration) {
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	r.n++
}

// quantiles returns the q-quantiles over the retained window; nil when
// nothing was recorded.
func (r *waitRing) quantiles(qs ...float64) []time.Duration {
	n := min(r.n, len(r.buf))
	if n == 0 {
		return nil
	}
	window := make([]time.Duration, n)
	copy(window, r.buf[:n])
	slices.Sort(window)
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		j := int(q * float64(n-1))
		out[i] = window[j]
	}
	return out
}

// TenantStats is one tenant's line in Stats.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Running and Queued are the tenant's current counts; Dispatched and
	// Rejected total its admitted and backpressured submissions since it
	// was last idle.
	Running    int   `json:"running"`
	Queued     int   `json:"queued"`
	Dispatched int64 `json:"dispatched"`
	Rejected   int64 `json:"rejected"`
}

// Stats is the scheduler's observable state, surfaced through GET /stats.
type Stats struct {
	// MaxRunning echoes the fleet-wide concurrency bound (0 = unbounded).
	MaxRunning int `json:"max_running"`
	// Running and Queued are current totals; MaxQueueDepth is the queued
	// high-water mark since the scheduler was built.
	Running       int `json:"running"`
	Queued        int `json:"queued"`
	MaxQueueDepth int `json:"max_queue_depth"`
	// Submitted, Dispatched, Rejected, and Cancelled total the lifecycle
	// outcomes (Submitted counts rejections too).
	Submitted  int64 `json:"submitted"`
	Dispatched int64 `json:"dispatched"`
	Rejected   int64 `json:"rejected"`
	Cancelled  int64 `json:"cancelled"`
	// WaitP50MS and WaitP99MS are admission-wait quantiles (submit to
	// dispatch) over a sliding window of recent dispatches.
	WaitP50MS float64 `json:"wait_p50_ms"`
	WaitP99MS float64 `json:"wait_p99_ms"`
	// Tenants lists per-tenant accounting for the tenants that currently
	// have a run running or queued, sorted by tenant id; never null.
	Tenants []TenantStats `json:"tenants"`
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		MaxRunning:    max(s.cfg.MaxRunning, 0),
		Running:       s.running,
		Queued:        s.queuedLocked(),
		MaxQueueDepth: s.maxDepth,
		Submitted:     s.submitted,
		Dispatched:    s.dispatched,
		Rejected:      s.rejected,
		Cancelled:     s.cancelled,
		Tenants:       make([]TenantStats, 0, len(s.tenants)),
	}
	if q := s.waits.quantiles(0.50, 0.99); q != nil {
		st.WaitP50MS = float64(q[0]) / float64(time.Millisecond)
		st.WaitP99MS = float64(q[1]) / float64(time.Millisecond)
	}
	for _, ts := range s.tenants {
		st.Tenants = append(st.Tenants, TenantStats{
			Tenant:     ts.name,
			Running:    ts.running,
			Queued:     len(ts.queue),
			Dispatched: ts.dispatched,
			Rejected:   ts.rejected,
		})
	}
	slices.SortFunc(st.Tenants, func(a, b TenantStats) int { return strings.Compare(a.Tenant, b.Tenant) })
	return st
}
