package sched

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/param"
)

// defaultCoalesceMaxConfigs flushes a merge early once this many unique
// configurations have accumulated, bounding both the wait and the combined
// request size.
const defaultCoalesceMaxConfigs = 4096

// Coalescer merges the evaluation batches of concurrent runs over one
// design space into combined calls on a shared backend, deduplicating
// identical configurations across runs in the process. It implements
// core.Backend and wraps another Backend (a worker.Pool backend, or a
// LocalBackend), so the fleet sees fewer, larger, duplicate-free dispatches
// while every run still receives its results position-matched and
// byte-identical to an unmerged evaluation.
//
// A Coalescer is bound to exactly one space and one inner backend: every
// incoming configuration is resolved to its design-space index, which is
// the deduplication key. A configuration that does not belong to the space
// fails the call, so results never mix across spaces whose configs happen
// to look alike.
//
// Merging is time-bounded: the first batch to arrive opens a merge window
// (Window); batches arriving within it join the merge, and the combined
// call flushes when the window lapses or the merge reaches its size bound.
//
// The daemon no longer builds one: the memo-cache already single-flights
// misses across runs, so a merge only added its window's wait, and for
// NoCache runs its dedup did not pay for that wait either. The type stays
// while the benchmark still times it.
type Coalescer struct {
	space      *param.Space
	inner      core.Backend
	window     time.Duration
	maxConfigs int

	mu  sync.Mutex
	cur *merge

	stats CoalesceStats
}

// CoalesceStats counts a Coalescer's traffic.
type CoalesceStats struct {
	// Calls counts EvaluateBatch calls accepted; Flushes counts combined
	// backend dispatches. Flushes ≤ Calls, and the gap is the merging win.
	Calls   int64 `json:"calls"`
	Flushes int64 `json:"flushes"`
	// MergedCalls counts calls that shared their flush with at least one
	// other call.
	MergedCalls int64 `json:"merged_calls"`
	// Configs counts configurations submitted; Deduped counts the subset
	// served by another configuration identical to them inside the same
	// merge (evaluated once, fanned out to every requester).
	Configs int64 `json:"configs"`
	Deduped int64 `json:"deduped"`
}

// NewCoalescer returns a coalescer for one space over inner. window ≤ 0
// disables time-based merging (each call flushes immediately, still
// deduplicated within itself).
func NewCoalescer(space *param.Space, inner core.Backend, window time.Duration) *Coalescer {
	return &Coalescer{space: space, inner: inner, window: window, maxConfigs: defaultCoalesceMaxConfigs}
}

// merge is one in-progress combination of calls.
type merge struct {
	cfgs       []param.Config // unique configurations, arrival order
	pos        map[int64]int  // design-space index → position in cfgs
	calls      int
	dispatched bool // guarded by Coalescer.mu; the single-flush invariant

	done    chan struct{} // closed when results and err are set
	results [][]float64
	err     error
}

// mcall is one caller's membership in a merge: where each of its
// configurations landed in the combined batch.
type mcall struct {
	m   *merge
	pos []int
}

// EvaluateBatch implements core.Backend. Each caller blocks until its
// merge flushes (or its own context is done) and receives exactly its
// configurations' results, position-matched per the Backend contract.
func (c *Coalescer) EvaluateBatch(ctx context.Context, cfgs []param.Config) ([][]float64, error) {
	idxs := make([]int64, len(cfgs))
	for i, cfg := range cfgs {
		idx, err := c.space.IndexOf(cfg)
		if err != nil {
			// A config from another space: refuse the whole call rather
			// than guess. This is the isolation guarantee — indices from
			// unrelated spaces never key into this coalescer's merges.
			return nil, fmt.Errorf("sched: configuration %d not in this coalescer's space: %w", i, err)
		}
		idxs[i] = idx
	}

	call, flushNow := c.join(idxs, cfgs)
	if flushNow != nil {
		c.flush(flushNow)
	}
	m := call.m
	select {
	case <-m.done:
	case <-ctx.Done():
		// The run is cancelled; the merge continues for its other members.
		return make([][]float64, len(cfgs)), ctx.Err()
	}
	out := make([][]float64, len(cfgs))
	for i, p := range call.pos {
		if p < len(m.results) && m.results[p] != nil {
			out[i] = append([]float64(nil), m.results[p]...)
		}
	}
	return out, m.err
}

// join adds one call to the current merge (opening one if needed) and
// returns the membership plus, when this call filled the merge or merging
// is disabled, the merge to flush synchronously.
func (c *Coalescer) join(idxs []int64, cfgs []param.Config) (mcall, *merge) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Calls++
	c.stats.Configs += int64(len(cfgs))

	m := c.cur
	if m == nil {
		m = &merge{pos: make(map[int64]int), done: make(chan struct{})}
		if c.window > 0 {
			c.cur = m
			mm := m
			time.AfterFunc(c.window, func() { c.flush(mm) })
		}
	}
	m.calls++
	call := mcall{m: m, pos: make([]int, len(cfgs))}
	for i, idx := range idxs {
		if p, ok := m.pos[idx]; ok {
			call.pos[i] = p
			c.stats.Deduped++
			continue
		}
		p := len(m.cfgs)
		m.cfgs = append(m.cfgs, cfgs[i])
		m.pos[idx] = p
		call.pos[i] = p
	}
	if c.cur != m {
		return call, m // merging disabled: caller flushes immediately
	}
	if len(m.cfgs) >= c.maxConfigs {
		c.cur = nil
		return call, m // full: caller flushes without waiting for the timer
	}
	return call, nil
}

// flush dispatches a merge's combined batch exactly once (the timer and a
// size-triggered caller can race here) and publishes the results.
func (c *Coalescer) flush(m *merge) {
	c.mu.Lock()
	if c.cur == m {
		c.cur = nil
	}
	if m.dispatched {
		c.mu.Unlock()
		return
	}
	m.dispatched = true
	c.stats.Flushes++
	if m.calls > 1 {
		c.stats.MergedCalls += int64(m.calls)
	}
	c.mu.Unlock()

	// The combined call runs on the flusher's goroutine with its own
	// context: member runs observe their own cancellation independently,
	// and one cancelled member must not abort the others' evaluations.
	res, err := c.inner.EvaluateBatch(context.Background(), m.cfgs)
	m.results, m.err = res, err
	if m.results == nil {
		m.results = make([][]float64, len(m.cfgs))
	}
	close(m.done)
}

// counters snapshots the coalescer's counters.
func (c *Coalescer) counters() CoalesceStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
