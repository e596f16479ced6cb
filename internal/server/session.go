package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/nanjson"
	"repro/internal/sched"
)

// State enumerates a session's lifecycle.
type State string

const (
	// StateQueued marks a session admitted by the scheduler but waiting for
	// a free slot: its tenant is at quota or the fleet is saturated. The
	// engine has not started; nothing is persisted yet.
	StateQueued State = "queued"
	// StateRunning marks a session whose exploration is still in progress.
	StateRunning State = "running"
	// StateRecovering marks an interrupted session the daemon is rebuilding
	// from its evaluation journal after a restart: the engine is replaying
	// measured batches (no evaluator calls) until it reaches the first
	// configuration the crash lost, at which point the session transitions
	// to running. GET /readyz reports not-ready while any session is in
	// this state.
	StateRecovering State = "recovering"
	// StateDone marks a session that completed its budget or converged.
	StateDone State = "done"
	// StateCancelled marks a session stopped by DELETE /runs/{id} or
	// daemon shutdown; its partial result remains fetchable.
	StateCancelled State = "cancelled"
	// StateFailed marks a session whose run returned an error (e.g. its
	// evaluation backend exhausted retries); see RunStatus.Error.
	StateFailed State = "failed"
)

// Terminal reports whether no further progress events can arrive.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// IterationEvent is one progress record: the bootstrap (iteration 0) or an
// active-learning round. The *_ms fields are the engine's per-phase
// wall-clock timings (forest fit, pool encode, pool predict, hardware
// evaluation) in milliseconds, so dashboards tailing /events can see where
// optimizer time goes in production. They are never omitted: a phase that
// measured 0 ms (or was skipped, like fit during the bootstrap) still
// reports 0, so sub-millisecond timings and true zeros are
// distinguishable from "field missing" by strict consumers.
type IterationEvent struct {
	// Iteration is 0 for the bootstrap, i ≥ 1 for the i-th AL round.
	Iteration int `json:"iteration"`
	// PredictedFrontSize is |P|, the model-predicted front size.
	PredictedFrontSize int `json:"predicted_front_size,omitempty"`
	// NewSamples, TotalSamples, and FrontSize mirror the engine's
	// IterationStats: configurations measured this round, measured in
	// total, and the measured-front size after the round.
	NewSamples   int `json:"new_samples"`
	TotalSamples int `json:"total_samples"`
	FrontSize    int `json:"front_size"`
	// OOBError is the per-objective forest OOB MSE. JSON has no NaN/Inf and
	// encoding/json fails the whole write on one, but the engine reports NaN
	// for an undefined OOB error (no out-of-bag samples on a tiny training
	// set) and extreme objective values can overflow the MSE to +Inf, so the
	// entries marshal as null while undefined instead of crashing the feed.
	OOBError nanjson.Vector `json:"oob_error,omitempty"`
	// OOBSamples mirrors the engine's per-objective OOB sample counts: a 0
	// marks the matching oob_error as null/undefined (no sample was ever out
	// of bag), not as a perfect fit.
	OOBSamples []int `json:"oob_samples,omitempty"`
	// CacheHits and CacheMisses count this round's memo-cache lookups.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Unmeasured counts configurations this round tolerated away
	// unmeasured under the run's max_unmeasured_fraction (0 on strict
	// runs).
	Unmeasured int `json:"unmeasured,omitempty"`
	// Hypervolume is the measured front's hypervolume after this round
	// (reference point: per-objective nadir padded by 10% of the observed
	// range). It marshals as null while undefined — before any valid
	// measurement, or on a degenerate single-point range.
	Hypervolume nanjson.Float `json:"hypervolume"`
	// FitMS, EncodeMS, PredictMS, and EvalMS are the per-phase wall-clock
	// timings described above.
	FitMS     float64 `json:"fit_ms"`
	EncodeMS  float64 `json:"encode_ms"`
	PredictMS float64 `json:"predict_ms"`
	EvalMS    float64 `json:"eval_ms"`
}

// RunStatus is the GET /runs/{id} body: one session's identity, lifecycle
// state, and progress summary.
type RunStatus struct {
	ID      string    `json:"id"`
	Problem string    `json:"problem"`
	State   State     `json:"state"`
	Created time.Time `json:"created"`
	// Tenant and Priority echo the admission identity the request carried
	// (empty means the shared anonymous tenant).
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Samples and FrontSize summarize progress: evaluated configurations
	// and the current measured-front size (from the final result once
	// terminal, else from the latest progress event).
	Samples   int  `json:"samples"`
	FrontSize int  `json:"front_size"`
	Converged bool `json:"converged"`
	// CacheHits and CacheMisses total the session's memo-cache lookups.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Unmeasured totals the configurations tolerated away unmeasured
	// across the run (graceful degradation; 0 on strict runs).
	Unmeasured int `json:"unmeasured,omitempty"`
	// Error carries the failure reason when State is "failed".
	Error string `json:"error,omitempty"`
	// Strategy echoes the resolved search-strategy pipeline this run
	// executes with (request defaults filled in).
	Strategy StrategyInfo `json:"strategy"`
	// Iterations is the full progress-event history, bootstrap first.
	Iterations []IterationEvent `json:"iterations"`
}

// session is one managed exploration.
type session struct {
	id      string
	seq     int64 // numeric run sequence; orders sessions and keys the store
	problem Problem
	created time.Time
	cancel  context.CancelFunc

	// req is the originating run request, persisted in meta.json so a
	// restarted daemon can rebuild identical engine options for resume.
	req RunRequest
	// runCtx is the run's context (a child of the manager's base context);
	// cache and backend are the problem record's memo-cache and backend,
	// resolved at submission. All are fixed before the session becomes
	// visible. ticket is the scheduler admission handle, which Cancel uses
	// to withdraw a still-queued run — nil on resumed and restored
	// sessions, which skip admission. It is written once before store.Put
	// publishes the session, so readers see it safely.
	runCtx  context.Context
	cache   *core.EvalCache
	backend core.Backend
	ticket  *sched.Ticket
	// jw is the run's evaluation journal; nil when the manager has no data
	// directory, and for sessions restored already-terminal. Only the
	// engine goroutine appends to it.
	jw *journal.Writer
	// disk is held while the session turns terminal and its record goes to
	// disk, and while eviction unlinks its run directory, so an unlink never
	// lands between a write's start and its rename.
	disk sync.Mutex
	// keepDir marks a session that ended failed without a record on disk,
	// whose run directory a later restart must find as it was: evicting it
	// drops it from memory only. Set before the session turns terminal, and
	// eviction reads it only after.
	keepDir bool

	mu     sync.Mutex
	state  State
	events []IterationEvent
	subs   map[chan struct{}]struct{} // wake signals for event streamers
	// record is the session's terminal record, nil until the session ends.
	// finish builds it, once, from what the engine returned; a restart reads
	// it back from result.json. Either way it is the one value status(), the
	// front handler and eviction serve from then on, and nothing mutates it.
	record *storedResult
	// err is the error finish was given; Start reads it to tell a run that
	// was refused at dispatch from one that failed later.
	err error
}

func toEvent(s core.IterationStats) IterationEvent {
	return IterationEvent{
		Iteration:          s.Iteration,
		PredictedFrontSize: s.PredictedFrontSize,
		NewSamples:         s.NewSamples,
		TotalSamples:       s.TotalSamples,
		FrontSize:          s.FrontSize,
		OOBError:           s.OOBError,
		OOBSamples:         s.OOBSamples,
		CacheHits:          s.CacheHits,
		CacheMisses:        s.CacheMisses,
		Unmeasured:         s.Unmeasured,
		Hypervolume:        nanjson.Float(s.Hypervolume),
		FitMS:              durationMS(s.FitTime),
		EncodeMS:           durationMS(s.EncodeTime),
		PredictMS:          durationMS(s.PredictTime),
		EvalMS:             durationMS(s.EvalTime),
	}
}

func durationMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// publish records a progress event and wakes event streamers. Streamers
// read from the shared history by cursor, so a stalled subscriber misses
// wake-ups (they coalesce) but never events.
func (s *session) publish(ev IterationEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, ev)
	s.wakeLocked()
}

func (s *session) wakeLocked() {
	for ch := range s.subs {
		select {
		case ch <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// finish ends the session: it builds the terminal record from what the
// engine returned, installs it, and returns it for the durability layer to
// write. The result itself is dropped here — samples, configurations and
// the final forests are not retained with the session. A run stopped by
// cancellation reports context.Canceled from RunContext; a nil error means
// the run completed even if its context was cancelled moments later.
func (s *session) finish(res *core.Result, err error) *storedResult {
	var front *core.StoredFront
	if res != nil {
		front = core.NewStoredFront(s.problem.Space, res, s.problem.Name, "", s.problem.Objectives)
	}
	s.mu.Lock()
	st := s.liveStatus()
	switch {
	case errors.Is(err, context.Canceled):
		st.State = StateCancelled
	case err != nil:
		st.State = StateFailed
		st.Error = err.Error()
		s.err = err
	default:
		st.State = StateDone
	}
	if res != nil {
		st.Samples = len(res.Samples)
		st.FrontSize = len(res.Front)
		st.Converged = res.Converged
		st.CacheHits = res.CacheHits
		st.CacheMisses = res.CacheMisses
		st.Unmeasured = res.Unmeasured
	}
	rec := &storedResult{Status: st, Finished: time.Now(), Front: front}
	s.mu.Unlock()
	s.settle(rec)
	return rec
}

// settle installs a terminal record — finish's, or one read back from
// result.json — and ends the event stream.
func (s *session) settle(rec *storedResult) {
	s.mu.Lock()
	s.record = rec
	s.state = rec.Status.State
	s.events = rec.Status.Iterations
	s.wakeLocked()
	s.mu.Unlock()
}

// setRunning flips a queued session to running at dispatch; a no-op once
// terminal (a shutdown abort can beat the dispatch goroutine here).
func (s *session) setRunning() {
	s.mu.Lock()
	if s.state == StateQueued {
		s.state = StateRunning
	}
	s.mu.Unlock()
}

// leaveRecovering flips a recovering session to running — called on the
// first journal append past the replayed history, when the engine starts
// measuring configurations the crash lost.
func (s *session) leaveRecovering() {
	s.mu.Lock()
	if s.state == StateRecovering {
		s.state = StateRunning
	}
	s.mu.Unlock()
}

// failure returns the error a failed session ended with, nil otherwise.
func (s *session) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// terminalInfo returns the state and, if terminal, when it became so.
func (s *session) terminalInfo() (State, time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.record == nil {
		return s.state, time.Time{}
	}
	return s.state, s.record.Finished
}

// subscribe registers a wake channel for the event stream.
func (s *session) subscribe() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan struct{}, 1)
	if s.subs == nil {
		s.subs = make(map[chan struct{}]struct{})
	}
	s.subs[ch] = struct{}{}
	return ch
}

func (s *session) unsubscribe(ch chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, ch)
}

// eventsSince returns the events recorded past the cursor, the new cursor,
// and whether the session is terminal — one consistent snapshot, so a
// streamer that sees (no new events, terminal) can stop knowing it missed
// nothing.
func (s *session) eventsSince(cursor int) ([]IterationEvent, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cursor > len(s.events) {
		cursor = len(s.events)
	}
	fresh := append([]IterationEvent(nil), s.events[cursor:]...)
	return fresh, len(s.events), s.state.Terminal()
}

// status is the GET /runs/{id} body: the terminal record's once there is
// one, the live progress summary until then.
func (s *session) status() RunStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.record != nil {
		return s.record.Status
	}
	return s.liveStatus()
}

// liveStatus summarizes a session that has not ended from its progress
// events. Called with s.mu held.
func (s *session) liveStatus() RunStatus {
	st := RunStatus{
		ID:       s.id,
		Problem:  s.problem.Name,
		State:    s.state,
		Created:  s.created,
		Tenant:   s.req.Tenant,
		Priority: s.req.Priority,
		Strategy: s.req.Strategy.Info(), // as in buildOpts: unresolvable names run, and echo, the defaults
		// Never nil: before the first event this must marshal as [], not
		// null, for strict clients.
		Iterations: append(make([]IterationEvent, 0, len(s.events)), s.events...),
	}
	if n := len(s.events); n > 0 {
		st.Samples = s.events[n-1].TotalSamples
		st.FrontSize = s.events[n-1].FrontSize
		for _, ev := range s.events {
			st.CacheHits += ev.CacheHits
			st.CacheMisses += ev.CacheMisses
			st.Unmeasured += ev.Unmeasured
		}
	}
	return st
}
