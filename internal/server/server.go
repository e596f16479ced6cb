// Package server lifts the HyperMapper engine into a long-running service:
// a session manager that launches, monitors, and cancels concurrent
// design-space explorations behind a JSON REST API. This is the
// infrastructure the paper's crowd-sourcing experiment (Fig. 5) implies —
// many users sharing one exploration service — and the first step toward
// the roadmap's heavy-traffic deployment.
//
// Endpoints:
//
//	GET    /problems         list the registered optimization problems
//	POST   /problems         register a declarative problem spec at runtime
//	GET    /stats            session-store and eviction counters
//	GET    /healthz          liveness (always 200 while serving)
//	GET    /readyz           readiness (503 until journal recovery finishes)
//	POST   /runs             start a DSE session           → 201 + status
//	GET    /runs             list sessions
//	GET    /runs/{id}        poll one session's status and progress
//	GET    /runs/{id}/front  fetch the (partial or final) Pareto front
//	GET    /runs/{id}/events stream per-iteration progress as NDJSON
//	DELETE /runs/{id}        cancel a running session
//
// Sessions over the same problem share one evaluator memo-cache, so
// repeated explorations of a space skip re-measurement.
//
// A session that has ended is one value, its terminal record
// (storedResult: final status, finish time, stored front). session.finish
// builds it once from what the engine returned and drops the result; the
// status and front endpoints serve it, the durability layer writes it as
// result.json, and a restarted daemon reads it back as the same value.
//
// The package splits along its layers: this file owns the Manager
// (registry, session construction and launch, lifecycle policy), session.go
// the per-session state machine, store.go the session store and
// eviction, persist.go the data-directory durability layer (journals,
// crash-safe resume, the persisted record), and handlers.go the HTTP
// surface.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/worker"
)

// Problem is the catalog's problem type: the daemon registers what the
// catalog builds, as is. Evaluators must be safe for concurrent use; one
// problem can back many simultaneous sessions. Under a remote evaluation
// pool Eval is bypassed (the name identifies the problem on the workers),
// but Space is still needed locally for sampling, encoding and validation.
type Problem = catalog.Problem

// StrategyRequest selects the search-strategy pipeline for one run; see
// core.Strategy, whose JSON form it is.
type StrategyRequest = core.Strategy

// RunRequest is the POST /runs body. Zero-valued budget fields select the
// engine defaults.
type RunRequest struct {
	// Problem names a registered problem; required.
	Problem string `json:"problem"`
	// Seed drives every random choice; equal seeds reproduce runs exactly.
	Seed int64 `json:"seed"`
	// RandomSamples, MaxIterations, MaxBatch, PoolCap, Trees, and Workers
	// map onto the engine budgets of core.Options (and Forest.Trees);
	// zero selects each one's documented default.
	RandomSamples int `json:"random_samples,omitempty"`
	MaxIterations int `json:"max_iterations,omitempty"`
	MaxBatch      int `json:"max_batch,omitempty"`
	PoolCap       int `json:"pool_cap,omitempty"`
	Trees         int `json:"trees,omitempty"`
	Workers       int `json:"workers,omitempty"`
	// NoCache opts this session out of the problem's shared memo-cache
	// (e.g. when the evaluator is noisy and fresh measurements matter).
	NoCache bool `json:"no_cache,omitempty"`
	// MaxUnmeasuredFraction bounds graceful degradation under a lossy
	// evaluation fleet: the run tolerates up to this fraction of a batch
	// coming back unmeasured instead of failing (core.Options field of the
	// same name). 0 selects the daemon's configured default — a request
	// cannot ask for strict fail-fast when the daemon default is lossier;
	// it can only raise the tolerance. Clamped to [0,1].
	MaxUnmeasuredFraction float64 `json:"max_unmeasured_fraction,omitempty"`
	// Strategy selects the search-strategy pipeline; the zero value is the
	// default pipeline and changes nothing.
	Strategy StrategyRequest `json:"strategy"`
	// Tenant identifies the submitting tenant for fair-share scheduling and
	// quotas. The HTTP layer falls back to the X-Tenant and then X-API-Key
	// headers when the body leaves it empty; a run with no identity at all
	// is admitted under the shared "anonymous" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders this run within its own tenant's admission queue
	// (higher dispatches first, FIFO within a class). Priority never crosses
	// tenant boundaries, so it cannot be used to starve other tenants.
	Priority int `json:"priority,omitempty"`
}

// anonymousTenant is the shared admission identity for requests that carry
// no tenant at all.
const anonymousTenant = "anonymous"

// tenant returns the admission identity for the request.
func (r RunRequest) tenant() string {
	if r.Tenant == "" {
		return anonymousTenant
	}
	return r.Tenant
}

// ErrUnknownProblem reports a RunRequest naming an unregistered problem.
var ErrUnknownProblem = errors.New("unknown problem")

// ErrShuttingDown reports a RunRequest arriving after Shutdown began.
var ErrShuttingDown = errors.New("server is shutting down")

// ErrStorage reports a data-directory persistence failure while launching
// a run; it maps to 500, not 400 — the request was fine, the disk was not.
var ErrStorage = errors.New("run storage failure")

// Request budget ceilings: hypermapperd is a shared multi-user service, so
// one request must not be able to exhaust the process (e.g. a huge tree
// count is allocated verbatim by forest.Fit).
const (
	maxRequestTrees      = 1024
	maxRequestIterations = 1000
	maxRequestSamples    = 1_000_000
	maxRequestPoolCap    = 10_000_000
	maxRequestWorkers    = 256
	maxTenantLen         = 128
	maxRequestPriority   = 1000
)

func (r RunRequest) validate() error {
	for _, f := range []struct {
		name string
		v    int
		max  int
	}{
		{"trees", r.Trees, maxRequestTrees},
		{"max_iterations", r.MaxIterations, maxRequestIterations},
		{"random_samples", r.RandomSamples, maxRequestSamples},
		{"max_batch", r.MaxBatch, maxRequestSamples},
		{"pool_cap", r.PoolCap, maxRequestPoolCap},
		{"workers", r.Workers, maxRequestWorkers},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must be ≥ 0 (0 selects the default)", f.name)
		}
		if f.v > f.max {
			return fmt.Errorf("%s %d exceeds the limit %d", f.name, f.v, f.max)
		}
	}
	if f := r.MaxUnmeasuredFraction; f < 0 || f > 1 {
		return fmt.Errorf("max_unmeasured_fraction %g must be in [0, 1]", f)
	}
	if len(r.Tenant) > maxTenantLen {
		return fmt.Errorf("tenant id exceeds %d bytes", maxTenantLen)
	}
	if strings.ContainsFunc(r.Tenant, func(c rune) bool { return c < 0x20 || c == 0x7f }) {
		return errors.New("tenant id must not contain control characters")
	}
	if !utf8.ValidString(r.Tenant) {
		// JSON re-encoding replaces invalid bytes with U+FFFD, so such an
		// id would not survive the status echo; refuse it outright.
		return errors.New("tenant id must be valid UTF-8")
	}
	if r.Priority < -maxRequestPriority || r.Priority > maxRequestPriority {
		return fmt.Errorf("priority %d must be in [%d, %d]", r.Priority, -maxRequestPriority, maxRequestPriority)
	}
	return r.Strategy.Validate()
}

// StrategyInfo is the resolved search strategy echoed in RunStatus: the
// names the engine actually ran with, defaults filled in.
type StrategyInfo = core.StrategyInfo

// Config bounds a long-lived manager's memory. The zero value retains
// every session forever — the behavior small deployments and tests want.
type Config struct {
	// SessionTTL evicts a terminal session this long after it finishes.
	// 0 retains terminal sessions forever. Running sessions are never
	// evicted regardless of age.
	SessionTTL time.Duration
	// MaxSessions caps retained sessions; when exceeded, terminal
	// sessions are evicted oldest-first. 0 means unbounded. The cap can
	// be transiently exceeded when more than MaxSessions runs are
	// in flight, since running sessions are never evicted.
	MaxSessions int
	// MaxUnmeasuredFraction is the default per-run degradation tolerance
	// (RunRequest field of the same name) applied when a request leaves it
	// 0. Keep it 0 to run the whole daemon strictly fail-fast.
	MaxUnmeasuredFraction float64
	// EvalPool, when non-nil, fans every session's evaluation batches out
	// to the given remote worker fleet instead of evaluating in-process:
	// each run gets the pool's backend bound to its problem name, so every
	// worker must serve the same problem catalog as this daemon. Per-worker
	// health counters are surfaced in GET /stats. Seeded runs produce
	// byte-identical results either way.
	EvalPool *worker.Pool
	// SpecLoader, when non-nil, materializes a problem from a raw
	// declarative spec document (internal/spec) and enables runtime
	// registration via POST /problems. The daemon wires this to the
	// catalog's spec loader; with no loader the endpoint answers 501.
	SpecLoader func(data []byte) (Problem, error)
	// DataDir, when non-empty, makes the manager durable: every run gets an
	// fsync'd evaluation journal under <DataDir>/runs/<id>/, terminal
	// results persist as atomic JSON artifacts, evaluator memo-caches spill
	// to <DataDir>/cache/, and sessions survive daemon restarts. Empty
	// keeps everything in memory.
	DataDir string
	// Resume, with DataDir set, replays interrupted runs' journals on
	// startup and continues each from its first unmeasured configuration.
	// Without it interrupted runs are restored as failed; their directories
	// are left intact, so a later restart with resume enabled can still
	// pick them up.
	Resume bool
	// Sched configures the multi-tenant fair-share scheduler every new run
	// is admitted through: a run starts immediately, waits (state "queued")
	// while its tenant is at quota or the fleet is saturated, or is rejected
	// with 429 + Retry-After when the tenant's queue is full. Nil bounds
	// nothing, so every accepted run starts immediately. Admission is all
	// it changes: a run measures through the problem's backend the same
	// way on either config. Resumed runs (Resume) relaunch without
	// admission so recovery can never deadlock behind queued work.
	Sched *sched.Config

	// janitorInterval, set only by tests, overrides how often TTL/cap
	// eviction runs in the background.
	janitorInterval time.Duration
}

// janitorPeriod is how often TTL/cap eviction runs in the background:
// SessionTTL/4 clamped to [100ms, 30s], or 30s with no TTL.
func (c Config) janitorPeriod() time.Duration {
	if c.janitorInterval > 0 {
		return c.janitorInterval
	}
	iv := 30 * time.Second
	if c.SessionTTL > 0 {
		iv = c.SessionTTL / 4
	}
	return min(max(iv, 100*time.Millisecond), 30*time.Second)
}

// Manager owns the problem registry, the session store, and the lifecycle
// policy that keeps a long-lived daemon's memory bounded.
type Manager struct {
	mu     sync.Mutex         // guards served, closed
	served map[string]*served // registered problems by name
	closed bool               // Shutdown has begun; no new sessions

	cfg        Config
	sched      *sched.Scheduler // admits every fresh run
	retryAfter time.Duration    // backoff hint on a queue-full rejection
	store      *store
	evictMu    sync.Mutex   // serializes eviction passes (janitor vs Start)
	evictedTTL atomic.Int64 // sessions evicted by TTL expiry
	evictedCap atomic.Int64 // sessions evicted by the MaxSessions cap

	seq      atomic.Int64
	wg       sync.WaitGroup
	baseCtx  context.Context
	baseStop context.CancelFunc

	started time.Time
}

// NewManagerConfig returns a manager with the given lifecycle config. If
// the config enables any eviction (TTL or cap), a janitor goroutine runs
// until Shutdown. With DataDir set, the constructor also restores
// persisted sessions from disk and (with Resume) relaunches interrupted
// runs from their journals.
func NewManagerConfig(cfg Config, problems ...Problem) *Manager {
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		served:   make(map[string]*served),
		cfg:      cfg,
		store:    newStore(cfg.DataDir),
		baseCtx:  ctx,
		baseStop: stop,
		started:  time.Now(),
	}
	var sc sched.Config // no limits: every submission is admitted in Submit
	if cfg.Sched != nil {
		sc = *cfg.Sched
	}
	m.sched = sched.New(sc)
	m.retryAfter = sc.RetryAfterHint()
	for _, p := range problems {
		m.Register(p)
	}
	var interrupted []runMeta
	if cfg.DataDir != "" {
		interrupted = m.restoreDataDir()
	}
	if cfg.SessionTTL > 0 || cfg.MaxSessions > 0 {
		m.wg.Add(1)
		go m.janitor(cfg.janitorPeriod())
	}
	switch {
	case len(interrupted) == 0:
	case cfg.Resume:
		m.resumeInterrupted(interrupted)
	default:
		m.failInterrupted(interrupted)
	}
	return m
}

// served is one registered problem as the daemon serves it: the problem,
// the memo-cache its runs share, and the backend they measure through. All
// three are built together by Register and replaced together when the
// problem is re-registered, so a session that captured a record measures
// with that record's evaluator and memoizes into that record's cache, even
// if it was still queued when the replacement arrived.
type served struct {
	Problem
	cache *core.EvalCache
	// backend is what every run of the problem measures through: the
	// fleet's backend, or nil (evaluate through Eval, under the run's own
	// Workers bound) without a fleet.
	backend core.Backend
}

// Register adds or replaces a problem. Replacing always resets the
// problem's memo-cache, including its on-disk spill, and its backend:
// the space fingerprint cannot detect an evaluator change, and serving the
// old evaluator's measurements to the new one would silently corrupt
// results. It also stops the old evaluator's program, if it runs one.
func (m *Manager) Register(p Problem) {
	m.mu.Lock()
	old := m.served[p.Name]
	if old != nil {
		// Before the new cache opens the same spill directory.
		if err := old.cache.RemoveSpill(); err != nil {
			log.Printf("problem %q: removing stale cache spill: %v", p.Name, err)
		}
	}
	r := &served{Problem: p, cache: core.NewEvalCache()}
	if m.cfg.DataDir != "" {
		r.cache = core.NewEvalCacheDir(filepath.Join(m.cfg.DataDir, "cache", cacheDirName(p.Name)))
	}
	if m.cfg.EvalPool != nil {
		// The objective count pins the fleet to this daemon's catalog.
		r.backend = m.cfg.EvalPool.Backend(p.Name, len(p.Objectives))
	}
	m.served[p.Name] = r
	m.mu.Unlock()
	if old != nil {
		core.Retire(old.Eval) // unlocked: Close waits for an evaluation in flight
	}
}

// isClosed reports whether Shutdown has begun.
func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Problems lists the registered problems sorted by name.
func (m *Manager) Problems() []Problem {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Problem, 0, len(m.served))
	for _, r := range m.served {
		out = append(out, r.Problem)
	}
	slices.SortFunc(out, func(a, b Problem) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Start submits one exploration session for admission and returns its
// initial status: "running" when the scheduler admitted it on the spot,
// "queued" when it waits for a slot. A submission past the tenant's queue
// bound fails with sched.ErrQueueFull (HTTP 429). The status is taken
// before the session enters the store: with eviction enabled, a later
// lookup by id is allowed to miss.
func (m *Manager) Start(req RunRequest) (RunStatus, error) {
	if err := req.validate(); err != nil {
		return RunStatus{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return RunStatus{}, ErrShuttingDown
	}
	if _, ok := m.served[req.Problem]; !ok {
		m.mu.Unlock()
		return RunStatus{}, fmt.Errorf("%w: %q", ErrUnknownProblem, req.Problem)
	}
	seq := m.seq.Add(1)
	m.wg.Add(1)
	m.mu.Unlock()
	s := m.newSession(runMeta{
		ID:      fmt.Sprintf("run-%06d", seq),
		Seq:     seq,
		Problem: req.Problem,
		Created: time.Now(),
		Request: req,
	}, StateQueued)

	// Nothing touches the data directory until dispatch: a rejected,
	// queue-cancelled, or shutdown-dropped run must leave no on-disk trace.
	ticket, err := m.sched.Submit(req.tenant(), req.Priority,
		func(t *sched.Ticket) { m.dispatch(s, t) },
		func(*sched.Ticket) { m.end(s, nil, context.Canceled) }) // Shutdown dropped it queued
	if err != nil {
		m.release(s, nil)
		if errors.Is(err, sched.ErrClosed) {
			return RunStatus{}, ErrShuttingDown
		}
		return RunStatus{}, err
	}
	if err := s.failure(); errors.Is(err, ErrStorage) {
		// Dispatched inside Submit, and the run directory could not be
		// created. Nobody has seen the id yet, so the client gets the error
		// rather than a failed run (dispatch already released the session).
		return RunStatus{}, err
	}
	s.ticket = ticket
	st := s.status()
	m.store.Put(s)
	m.enforceCap()
	return st, nil
}

// newSession is the one way a session is built — for a fresh submission, a
// run being resumed, and a finished run restored from disk alike: identity
// and request from meta, a run context under the manager's, and the
// problem's record — problem, memo-cache and backend — resolved here, once.
// A problem that is not registered (possible only when restoring) leaves
// the session with the bare name, and a nil Space for the resume path to
// refuse.
func (m *Manager) newSession(meta runMeta, state State) *session {
	ctx, cancel := context.WithCancel(m.baseCtx)
	s := &session{
		id:      meta.ID,
		seq:     meta.Seq,
		problem: Problem{Name: meta.Problem},
		created: meta.Created,
		cancel:  cancel,
		runCtx:  ctx,
		req:     meta.Request,
		state:   state,
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.served[meta.Problem]; ok {
		s.problem, s.backend = r.Problem, r.backend
		if !meta.Request.NoCache {
			s.cache = r.cache
		}
	}
	return s
}

// dispatch launches an admitted session: it persists the run (S6: only now
// — admission rejections never touch the disk, and once a client sees a
// running id a crash at any later instant leaves a recoverable directory),
// flips it to running, and starts the engine goroutine. Called
// synchronously from Submit on immediate admission, or from whatever
// goroutine freed the slot. It is the only caller of persistStart.
func (m *Manager) dispatch(s *session, t *sched.Ticket) {
	if m.isClosed() {
		// A slot freed during shutdown dispatched us; the engine must not
		// start now.
		m.end(s, t, context.Canceled)
		return
	}
	opts := m.buildOpts(s)
	if m.cfg.DataDir != "" {
		if err := m.persistStart(s, core.RunFingerprint(s.problem.Space, opts)); err != nil {
			m.end(s, t, fmt.Errorf("%w: %v", ErrStorage, err))
			return
		}
	}
	s.setRunning()
	go func() {
		m.run(s, opts)
		m.release(s, t)
	}()
}

// run is the one engine call in this package: fresh and dequeued sessions
// reach it from dispatch, resumed ones from resumeRun with their journal
// pre-loaded in opts.Replay. Either way a session that
// has a journal open records every batch to it.
func (m *Manager) run(s *session, opts core.Options) {
	if s.jw != nil {
		opts.Journal = s
	}
	res, err := core.RunContext(s.runCtx, s.problem.Space, s.problem.Eval, opts)
	m.persistTerminal(s, s.finish(res, err))
}

// end finishes a session that will not reach the engine — refused at
// dispatch, or cancelled or dropped while still queued — and releases it.
func (m *Manager) end(s *session, t *sched.Ticket, err error) {
	s.finish(nil, err)
	m.release(s, t)
}

// release gives back what a session holds, exactly once per session: its
// scheduler slot (t is nil when it never got one — never dispatched, or
// resumed without admission), its context and its waitgroup slot.
func (m *Manager) release(s *session, t *sched.Ticket) {
	if t != nil {
		m.sched.Done(t)
	}
	s.cancel()
	m.wg.Done()
}

// buildOpts assembles the engine options for a session's request — shared by
// dispatch and the resume path, which must produce an identical
// configuration for the run fingerprints to match.
func (m *Manager) buildOpts(s *session) core.Options {
	p, req := s.problem, s.req
	// A request's 0 means "daemon default", so the resume path — which
	// rebuilds options from the persisted request under the then-current
	// daemon config — computes the same fingerprint as the original launch
	// as long as the daemon default is unchanged.
	frac := req.MaxUnmeasuredFraction
	if frac == 0 {
		frac = m.cfg.MaxUnmeasuredFraction
	}
	opts := core.Options{
		Objectives:            len(p.Objectives),
		RandomSamples:         req.RandomSamples,
		MaxIterations:         req.MaxIterations,
		MaxBatch:              req.MaxBatch,
		PoolCap:               req.PoolCap,
		Seed:                  req.Seed,
		Workers:               req.Workers,
		Cache:                 s.cache,
		Backend:               s.backend,
		MaxUnmeasuredFraction: frac,
		OnIteration:           func(st core.IterationStats) { s.publish(toEvent(st)) },
	}
	// validate() checked the strategy names at submit, so only a
	// hand-edited persisted request can fail here; it runs the default
	// strategy, as liveStatus echoes. The resume path rebuilds the exact
	// same strategy from the persisted request.
	if req.Strategy.Validate() == nil {
		opts.Strategy = req.Strategy
	}
	opts.Forest.Trees = req.Trees
	return opts
}

// Get returns a session by id. With eviction enabled, a previously valid
// id can legitimately miss.
func (m *Manager) Get(id string) (*session, bool) {
	return m.store.Get(id)
}

// Statuses lists every retained session, newest first by run sequence.
// (Comparing ids as strings would break past run-999999: "run-1000000"
// sorts before "run-999999" lexicographically.)
func (m *Manager) Statuses() []RunStatus {
	sessions := m.store.Snapshot()
	slices.SortFunc(sessions, func(a, b *session) int { return int(b.seq - a.seq) })
	out := make([]RunStatus, len(sessions))
	for i, s := range sessions {
		out[i] = s.status()
	}
	return out
}

// Cancel requests cancellation of a session and returns its post-cancel
// status in one atomic step; ok reports whether the id exists. Cancelling
// a terminal session is a no-op. Callers must not look the id up again to
// get the status — with eviction, a second lookup can legitimately miss.
func (m *Manager) Cancel(id string) (RunStatus, bool) {
	s, ok := m.store.Get(id)
	if !ok {
		return RunStatus{}, false
	}
	if t := s.ticket; t != nil && t.Cancel() {
		// Withdrawn while still queued: the scheduler guarantees the start
		// callback will never run, so no engine goroutine and no run
		// directory exist — end the session here. The scheduler lock
		// arbitrates the race with dispatch; exactly one side wins.
		m.end(s, nil, context.Canceled)
		return s.status(), true
	}
	// The session pointer stays valid even if eviction removes it from
	// the store between these two lines.
	s.cancel()
	return s.status(), true
}

// Stats is the GET /stats body: store occupancy and eviction counters.
type Stats struct {
	// Sessions is the retained count; Running and Terminal split it.
	Sessions int `json:"sessions"`
	// Running counts retained sessions still exploring.
	Running int `json:"running"`
	// Terminal counts retained sessions that finished (done, cancelled,
	// or failed) and are eligible for eviction.
	Terminal int `json:"terminal"`
	// TotalStarted counts every session ever launched, including evicted
	// ones.
	TotalStarted int64 `json:"total_started"`
	// EvictedTTL and EvictedCap count sessions dropped by TTL expiry and
	// by the MaxSessions cap.
	EvictedTTL int64 `json:"evicted_ttl"`
	EvictedCap int64 `json:"evicted_cap"`
	// MaxSessions, SessionTTLS, and Problems echo the daemon's
	// configuration so operators can confirm what it runs with:
	// session_ttl_s is 0 when TTL eviction is off, max_sessions 0 when
	// unbounded.
	MaxSessions int     `json:"max_sessions"`
	SessionTTLS float64 `json:"session_ttl_s"`
	Problems    int     `json:"problems"`
	// Workers reports the remote evaluation fleet's per-worker health
	// counters (requests, failures, hedges, in-flight, circuit-breaker
	// state and trips); absent when the daemon evaluates in-process.
	Workers []worker.WorkerStats `json:"workers,omitempty"`
	// Persistent reports whether a data directory backs this daemon;
	// Recovering counts retained sessions still replaying their journals
	// (state "recovering", also counted in Running; GET /readyz turns ready
	// once it reaches 0), and CacheSpillErrors totals degraded-to-memory
	// spill failures across the problem memo-caches.
	Persistent       bool  `json:"persistent"`
	Recovering       int   `json:"recovering"`
	CacheSpillErrors int64 `json:"cache_spill_errors"`
	// Queued counts retained sessions waiting for scheduler admission.
	Queued int `json:"queued"`
	// Sched reports the multi-tenant scheduler's admission accounting —
	// per-tenant running/queued/rejected counts, queue-depth high-water
	// mark, and admission-wait quantiles. Always set.
	Sched *sched.Stats `json:"sched"`
	// Coalesce is always nil: the daemon no longer merges runs' batches
	// (the memo-cache single-flights misses across runs instead). The field
	// stays until the benchmark stops reading it.
	Coalesce *sched.CoalesceStats `json:"coalesce,omitempty"`
	// CacheHits / CacheMisses / CacheCoalesceHits total memo-cache lookups
	// across every problem cache; CacheCoalesceHits is the subset of hits
	// resolved by waiting on another run's in-flight evaluation (cross-run
	// singleflight).
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheCoalesceHits int64 `json:"cache_coalesce_hits"`
	// PoolBatches and PoolBatchConfigs count backend-level dispatches to
	// the remote evaluation fleet and the configurations they carried;
	// absent (0) when the daemon evaluates in-process.
	PoolBatches      int64 `json:"pool_batches,omitempty"`
	PoolBatchConfigs int64 `json:"pool_batch_configs,omitempty"`
}

// Stats reports store occupancy, eviction counters, and the lifecycle
// configuration.
func (m *Manager) Stats() Stats {
	st := Stats{
		TotalStarted: m.seq.Load(),
		EvictedTTL:   m.evictedTTL.Load(),
		EvictedCap:   m.evictedCap.Load(),
		MaxSessions:  m.cfg.MaxSessions,
		SessionTTLS:  m.cfg.SessionTTL.Seconds(),
		Persistent:   m.cfg.DataDir != "",
	}
	if m.cfg.EvalPool != nil {
		st.Workers = m.cfg.EvalPool.Stats()
		st.PoolBatches, st.PoolBatchConfigs = m.cfg.EvalPool.BatchStats()
	}
	ss := m.sched.Stats()
	st.Sched = &ss
	m.mu.Lock()
	st.Problems = len(m.served)
	for _, r := range m.served {
		c := r.cache
		st.CacheSpillErrors += c.SpillErrors()
		st.CacheHits += c.Hits()
		st.CacheMisses += c.Misses()
		st.CacheCoalesceHits += c.CoalesceHits()
	}
	m.mu.Unlock()
	for _, s := range m.store.Snapshot() {
		st.Sessions++
		switch state, _ := s.terminalInfo(); {
		case state == StateQueued:
			st.Queued++
		case state.Terminal():
			st.Terminal++
		default:
			st.Running++
			if state == StateRecovering {
				st.Recovering++
			}
		}
	}
	return st
}

// Shutdown refuses new sessions, journals a clean-shutdown checkpoint for
// every live run (which persistTerminal then leaves in the resumable
// shape), cancels them, stops the janitor, and waits (up to the context
// deadline) for their goroutines to drain.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true // every wg.Add happened-before this; Wait is now safe
	m.mu.Unlock()
	// Drop every queued ticket first (their abort callbacks end the
	// sessions); dispatched runs are cancelled via the base context below.
	m.sched.Close()
	if m.cfg.DataDir != "" {
		for _, s := range m.store.Snapshot() {
			if state, _ := s.terminalInfo(); !state.Terminal() {
				s.checkpoint("shutdown")
			}
		}
	}
	m.baseStop()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.closeServed()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// closeServed releases every problem cache's spill files and stops every
// evaluator program; called once all run goroutines have drained.
func (m *Manager) closeServed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.served {
		_ = r.cache.Close()
		core.Retire(r.Eval)
	}
}
