package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/param"
)

// Options tunes a Pool. The zero value selects the documented defaults.
type Options struct {
	// ChunkSize is the maximum number of configurations per worker
	// request (default 32). It is a ceiling, not a stride: a batch is cut
	// into the fewest equal-sized chunks (sizes differ by at most one) that
	// respect it and whose count is a multiple of the workers whose breaker
	// is closed, so a batch smaller than ChunkSize still reaches every
	// healthy worker (see planChunks). A smaller ceiling means more, smaller
	// requests for a large batch; a larger one amortizes per-request
	// overhead.
	ChunkSize int
	// Retries is how many additional attempts a failed chunk gets, each
	// routed to a different worker than the one that just failed (default
	// 2). A chunk whose attempts are exhausted fails the batch; completed
	// chunks are still returned.
	Retries int
	// RetryBackoff is the base of the retry backoff (default 50ms): the
	// pause before retry k is drawn uniformly from [0, RetryBackoff·2^(k−1)]
	// capped at 2s — capped exponential backoff with full jitter, so
	// simultaneous chunk failures (one sick worker fails many chunks at
	// once) decorrelate instead of re-striking in lockstep. The jitter
	// source is seeded with 0: it exists to decorrelate a pool's own
	// concurrent chunks, which draw from one shared sequence either way.
	RetryBackoff time.Duration
	// retryBackoffCap caps the grown backoff interval (default 2s; tests
	// shorten it).
	retryBackoffCap time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// worker's circuit breaker (default 5; negative disables breakers).
	// A tripped worker is excluded from primary and hedge dispatch and
	// re-probed via GET /healthz every ProbeInterval until healthy, at
	// which point it is readmitted automatically. See breaker.go.
	BreakerThreshold int
	// ProbeInterval is the tripped-worker health-probe period (default 1s).
	ProbeInterval time.Duration
	// HedgeAfter is the straggler threshold: a request outstanding this
	// long is re-dispatched to a second worker, first reply wins. 0
	// derives the threshold adaptively from the observed per-configuration
	// service-time quantile (see hedgeQuantile); a negative value disables
	// hedging.
	HedgeAfter time.Duration
	// requestTimeout is the hard per-request ceiling (default 15m; tests
	// shorten it, negative disables it). It is the backstop that keeps a
	// wedged worker — accepts the connection, never answers — from hanging
	// a run when hedging is still cold: the attempt fails and the retry
	// loop moves to another worker.
	requestTimeout time.Duration
	// Client is the HTTP client for worker requests; nil selects a
	// default client (DefaultTransport dial timeouts, no overall timeout —
	// the per-request ceiling comes from requestTimeout).
	Client *http.Client
}

const (
	defaultChunkSize        = 32
	defaultRetries          = 2
	defaultRetryBackoff     = 50 * time.Millisecond
	defaultRetryBackoffCap  = 2 * time.Second
	defaultBreakerThreshold = 5
	defaultProbeInterval    = time.Second
	defaultRequestTimeout   = 15 * time.Minute
	// maxShedWaits bounds how many 503 backpressure pauses one chunk will
	// sit through without consuming its retry budget; past it shedding is
	// treated as an ordinary failure so a permanently saturated fleet
	// still fails the chunk instead of waiting forever.
	maxShedWaits = 16
	// maxShedPause caps a single honored Retry-After pause.
	maxShedPause = 30 * time.Second
	// maxInFlightPerWorker × workers bounds the pool's concurrent HTTP
	// requests across all sessions sharing it, hedges included.
	maxInFlightPerWorker = 4
	// hedgeQuantile is the service-time quantile the adaptive hedge
	// threshold (HedgeAfter 0) is read at. Service time is tracked per
	// configuration — chunks range from 1 to ChunkSize configurations, so
	// whole-request times share no scale — and a request's threshold is
	// that quantile × its configuration count. Windows are per problem (a
	// SLAM batch and a synthetic batch have nothing in common), and
	// hedging stays off until that problem has observed at least
	// hedgeMinSamples completions.
	hedgeQuantile = 0.95
	// hedgeMinSamples is how many completed requests the adaptive hedger
	// needs before it trusts its latency window.
	hedgeMinSamples = 8
	// latencyWindowSize bounds the sliding window of per-configuration
	// service times the adaptive hedge threshold is computed from.
	latencyWindowSize = 64
)

// WorkerStats is one worker's health counters, surfaced through
// Pool.Stats and the coordinator daemon's GET /stats.
type WorkerStats struct {
	URL string `json:"url"`
	// Requests counts evaluation requests sent to this worker, hedges and
	// retries included.
	Requests int64 `json:"requests"`
	// Failures counts requests that errored (connection failure, non-2xx,
	// malformed response) — not requests lost to a faster hedge leg.
	Failures int64 `json:"failures"`
	// Hedges counts requests sent to this worker as the second leg of a
	// hedged pair.
	Hedges int64 `json:"hedges"`
	// InFlight counts requests outstanding right now.
	InFlight int64 `json:"in_flight"`
	// Breaker is the circuit-breaker state: "closed", "open", or
	// "half-open" (see breaker.go).
	Breaker string `json:"breaker"`
	// Trips counts closed→open breaker transitions since the pool was
	// built.
	Trips int64 `json:"trips"`
	// LastError is the most recent request failure recorded against this
	// worker; cleared when its breaker closes (readmission or a
	// successful request).
	LastError string `json:"last_error,omitempty"`
}

// workerState is one worker endpoint plus its health counters and
// circuit breaker.
type workerState struct {
	url      string
	requests atomic.Int64
	failures atomic.Int64
	hedges   atomic.Int64
	inflight atomic.Int64
	trips    atomic.Int64

	brkMu   sync.Mutex
	brk     breakerState
	consec  int    // consecutive failures while closed
	lastErr string // most recent failure; cleared on close
}

// Pool is a fleet of worker daemons plus the dispatch that spreads
// batches over it, in three stages: placement picks a worker from one
// candidate set (breaker.go), an attempt is one POST whose reply is
// classified into an outcome that also drives the accounting (post and
// account, below), and the policy decides from a chunk's outcomes when to
// wait, hedge, retry or give up (policy.go). evalChunk and attemptHedged
// carry the policy out, with bounded in-flight requests. One Pool is
// shared by every session of a coordinator daemon; Backend binds it to a
// problem name, yielding the core.Backend a run plugs in.
//
// Pools are safe for concurrent use.
type Pool struct {
	workers []*workerState
	opts    Options
	client  *http.Client
	sem     chan struct{} // bounds in-flight HTTP requests
	cursor  atomic.Int64  // round-robin position over the candidate set (pick)

	winMu   sync.Mutex
	windows map[string]*latencyWindow // per-problem service times

	// batches/batchConfigs count backend-level dispatches: how many
	// EvaluateBatch calls reached the fleet and how many configurations
	// they carried. Their ratio is the average batch size the fleet sees.
	batches      atomic.Int64
	batchConfigs atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand // seeded backoff-jitter draws

	probeMu   sync.Mutex
	probing   bool          // health-probe loop running (breaker.go)
	done      chan struct{} // closed by Close; stops the probe loop
	closeOnce sync.Once
}

// NewPool builds a pool over the given worker base URLs (e.g.
// "http://host:9090"). At least one URL is required.
func NewPool(urls []string, opts Options) (*Pool, error) {
	if len(urls) == 0 {
		return nil, errors.New("worker: pool needs at least one worker URL")
	}
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = defaultChunkSize
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = defaultRetries
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = defaultRetryBackoff
	}
	if opts.retryBackoffCap <= 0 {
		opts.retryBackoffCap = defaultRetryBackoffCap
	}
	if opts.retryBackoffCap < opts.RetryBackoff {
		opts.retryBackoffCap = opts.RetryBackoff
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = defaultBreakerThreshold
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = defaultProbeInterval
	}
	if opts.requestTimeout == 0 {
		opts.requestTimeout = defaultRequestTimeout
	}
	client := opts.Client
	if client == nil {
		// No client-level timeout: a SLAM evaluation batch can
		// legitimately run for minutes, and the per-request ceiling is
		// already applied via requestTimeout in post. DefaultTransport
		// supplies the dial timeout for unreachable hosts.
		client = &http.Client{}
	}
	p := &Pool{
		opts:    opts,
		client:  client,
		sem:     make(chan struct{}, maxInFlightPerWorker*len(urls)),
		windows: make(map[string]*latencyWindow),
		rng:     rand.New(rand.NewSource(0)),
		done:    make(chan struct{}),
	}
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, errors.New("worker: empty worker URL")
		}
		p.workers = append(p.workers, &workerState{url: u})
	}
	return p, nil
}

// Backend binds the pool to a problem name, returning the evaluation
// backend a run plugs into core.Options.Backend. Every worker of the pool
// must have that problem registered under the same name. objectives is the
// objective-vector length the caller expects; responses carrying a
// different length are rejected as permanent protocol errors (a
// coordinator/worker configuration mismatch, e.g. -power on one side
// only) before they can reach the engine or the shared memo-cache.
func (p *Pool) Backend(problem string, objectives int) core.Backend {
	return &remoteBackend{pool: p, problem: problem, objectives: objectives}
}

// Stats snapshots every worker's health counters and breaker state, in
// pool order.
func (p *Pool) Stats() []WorkerStats {
	out := make([]WorkerStats, len(p.workers))
	for i, w := range p.workers {
		w.brkMu.Lock()
		brk, lastErr := w.brk, w.lastErr
		w.brkMu.Unlock()
		out[i] = WorkerStats{
			URL:       w.url,
			Requests:  w.requests.Load(),
			Failures:  w.failures.Load(),
			Hedges:    w.hedges.Load(),
			InFlight:  w.inflight.Load(),
			Breaker:   breakerNames[brk],
			Trips:     w.trips.Load(),
			LastError: lastErr,
		}
	}
	return out
}

// Size returns the number of workers in the pool.
func (p *Pool) Size() int { return len(p.workers) }

// BatchStats reports backend-level dispatch totals: EvaluateBatch calls
// that reached the fleet and the configurations they carried — what a
// run's memo-cache, when it has one, could not answer.
func (p *Pool) BatchStats() (batches, configs int64) {
	return p.batches.Load(), p.batchConfigs.Load()
}

// remoteBackend is the per-problem core.Backend view of a Pool.
type remoteBackend struct {
	pool       *Pool
	problem    string
	objectives int // expected objective-vector length
}

// EvaluateBatch implements core.Backend: the batch is cut into even chunks
// over the candidate set (planChunks), each chunk is dispatched to a
// worker (with retries on other workers and hedged re-dispatch of
// stragglers), and results land at fixed offsets of the output — so
// however the batch is cut and however completion order shuffles, the
// merged result is in input order and seeded runs stay deterministic.
//
// On failure the error of the first chunk to exhaust its attempts is
// returned together with every completed chunk's results; unevaluated
// configurations are left nil, which the engine retains as "not measured".
func (b *remoteBackend) EvaluateBatch(ctx context.Context, cfgs []param.Config) ([][]float64, error) {
	n := len(cfgs)
	out := make([][]float64, n)
	if n == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	p := b.pool
	p.batches.Add(1)
	p.batchConfigs.Add(int64(n))
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	bounds := planChunks(n, len(p.candidates(nil)), p.opts.ChunkSize)
	for i := 1; i < len(bounds); i++ {
		lo, hi := bounds[i-1], bounds[i]
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			objs, err := p.evalChunk(ctx, b.problem, cfgs[lo:hi])
			if err == nil {
				for i, ob := range objs {
					if len(ob) != b.objectives {
						// A count mismatch means coordinator and workers
						// disagree about the problem (e.g. -power on one
						// side only); letting it through would corrupt the
						// engine and the shared memo-cache.
						err = fmt.Errorf("worker: problem %q returned %d objectives for config %d, want %d (coordinator/worker catalog mismatch)",
							b.problem, len(ob), lo+i, b.objectives)
						break
					}
				}
			}
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			copy(out[lo:hi], objs)
		}(lo, hi)
	}
	wg.Wait()
	return out, firstErr
}

// planChunks cuts a batch of n configurations into contiguous chunks for
// workers dispatchable workers under a ceiling of chunkSize configurations
// per request, returning the boundaries b (chunk i is [b[i], b[i+1])). It
// plans the fewest whole rounds of the fleet that respect the ceiling —
// k = min(n, workers·⌈n/(workers·chunkSize)⌉) chunks whose sizes differ by
// at most one — so round-robin placement hands every worker the same
// number of equal chunks, and a batch far smaller than chunkSize still
// uses the whole fleet instead of one worker while the rest idle. The plan
// depends on nothing but its three arguments.
func planChunks(n, workers, chunkSize int) []int {
	perRound := workers * chunkSize
	k := min(n, workers*((n+perRound-1)/perRound))
	bounds := make([]int, k+1)
	for i := 1; i <= k; i++ {
		bounds[i] = i * n / k
	}
	return bounds
}

// evalChunk runs one chunk to completion, carrying out what the policy
// (chunk.settle) decides after each attempt: finish, give up, or pause and
// attempt again. The pause is the only sleep in dispatch.
func (p *Pool) evalChunk(ctx context.Context, problem string, cfgs []param.Config) ([][]float64, error) {
	c := &chunk{size: len(cfgs), retries: p.opts.Retries, workers: len(p.workers),
		backoff: p.retryDelay, failed: make(map[int]bool)}
	for {
		objs, pause, err := p.attemptHedged(ctx, c, problem, cfgs)
		if objs != nil || err != nil {
			return objs, err
		}
		select {
		case <-time.After(pause):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// attemptHedged runs one attempt: a request to a primary worker placed
// outside the chunk's failed set and, if it is still outstanding past the
// hedge threshold, a second request to another worker (chunk.hedgeAvoid).
// Each leg's outcome goes to the policy; the attempt ends with the
// objectives of the first leg to succeed, the error the chunk gives up
// with, or neither and the pause before the next attempt.
//
// Every leg holds an in-flight semaphore slot for its HTTP exchange. The
// primary acquires it blocking (that wait IS the pool's backpressure);
// a hedge leg only dispatches if a slot is free right now — blocking would
// queue it behind the very stragglers it exists to bypass. The latency
// window records the winning leg's service time (post-acquisition) per
// configuration, not attempt wall-clock, so queueing and primary straggle
// never inflate the adaptive hedge threshold — and the hedge timer is
// armed at that per-configuration quantile × len(cfgs), so a small chunk
// is not judged against a large one's time (see hedgeDelay).
func (p *Pool) attemptHedged(ctx context.Context, c *chunk, problem string, cfgs []param.Config) ([][]float64, time.Duration, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in the losing leg

	replies := make(chan outcome, 2)
	// launch dispatches one leg; it reports false when no slot/context was
	// available (hedge skipped, or ctx done during the primary's wait).
	launch := func(worker int, hedge bool) bool {
		if hedge {
			select {
			case p.sem <- struct{}{}:
			default:
				return false // pool saturated: skip the hedge, keep the bound
			}
		} else {
			select {
			case p.sem <- struct{}{}:
			case <-cctx.Done():
				return false
			}
		}
		w := p.workers[worker]
		w.requests.Add(1)
		if hedge {
			w.hedges.Add(1)
		}
		go func() {
			defer func() { <-p.sem }()
			start := time.Now()
			o := p.post(cctx, w, problem, cfgs)
			o.worker, o.perConfig = worker, time.Since(start)/time.Duration(len(cfgs))
			p.account(worker, o)
			replies <- o
		}()
		return true
	}

	primary := p.pick(c.failed)
	if !launch(primary, false) {
		return nil, 0, ctx.Err()
	}
	outstanding := 1
	var hedgeTimer <-chan time.Time
	if d := p.hedgeDelay(problem, len(cfgs)); d > 0 {
		hedgeTimer = time.After(d)
	}
	for {
		select {
		case o := <-replies:
			outstanding--
			if o.kind == cancelled {
				// Only the caller can have cancelled cctx while this loop
				// runs: the deferred cancel has not fired yet.
				return nil, 0, ctx.Err()
			}
			switch v, pause, err := c.settle(o, outstanding); v {
			case finish:
				p.window(problem).record(o.perConfig)
				if outstanding > 0 {
					p.drainLosers(problem, replies, outstanding)
				}
				return o.objs, 0, nil
			case retry:
				return nil, pause, nil
			case giveUp:
				// A leg still out is cancelled by the deferred cancel and
				// drains through the buffered channel.
				return nil, 0, err
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if second := p.pick(c.hedgeAvoid(primary)); second != primary && launch(second, true) {
				outstanding++
			}
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
}

// drainLosers collects the outstanding legs of a decided hedged attempt
// in the background. A loser that completed successfully before the
// winner's cancellation landed did real, measurable service — its
// per-configuration time feeds the latency window exactly once (here, and
// only here: the winner path above records only the winning leg), so a
// worker's hedge losses count as completions in the health snapshot
// instead of vanishing from it. Cancelled or failed losers were already
// accounted for by the launch goroutine.
func (p *Pool) drainLosers(problem string, replies <-chan outcome, outstanding int) {
	go func() {
		for i := 0; i < outstanding; i++ {
			if o := <-replies; o.kind == succeeded {
				p.window(problem).record(o.perConfig)
			}
		}
	}()
}

// outcomeKind classifies one request's reply; it is all the policy and the
// breaker learn of the exchange.
type outcomeKind int

const (
	succeeded outcomeKind = iota
	// rejected is a 4xx: a protocol rejection (unknown problem, bad
	// configuration) every worker of a consistent fleet would repeat.
	rejected
	// shed is a 503 from a healthy worker shedding load, with its
	// Retry-After.
	shed
	// failed is anything else: connection error, timeout, 5xx, malformed
	// reply.
	failed
	// cancelled is a leg nobody waits for any more: its attempt was
	// decided by the other leg, or the caller gave up.
	cancelled
)

// outcome is one leg of an attempt, classified.
type outcome struct {
	kind  outcomeKind
	objs  [][]float64   // succeeded: one objective vector per configuration
	err   error         // every kind but succeeded
	after time.Duration // shed: the advertised Retry-After; 0 when absent
	// worker and perConfig (service time ÷ the chunk's configurations, the
	// unit latencyWindow keeps) are filled in by the leg that sent it.
	worker    int
	perConfig time.Duration
}

// account updates worker i's failure counter and breaker from one leg's
// outcome (requests and hedges are counted when a leg is sent). A success
// closes the breaker, whichever leg it was — a hedge loser's, or traffic
// that reached an open worker because the whole fleet was tripped: a real
// success is better evidence of health than any probe. A rejection counts
// as a failure but says nothing about the worker's health; a transient
// failure also records the error and, at BreakerThreshold consecutive
// ones, trips the breaker. Shed and cancelled legs change nothing: the one
// is a healthy worker protecting itself, the other a request nobody waits
// for any more.
func (p *Pool) account(i int, o outcome) {
	w := p.workers[i]
	if o.kind == rejected || o.kind == failed {
		w.failures.Add(1)
	}
	w.brkMu.Lock()
	switch o.kind {
	case succeeded:
		w.consec = 0
		if w.brk != breakerClosed {
			w.brk = breakerClosed
			w.lastErr = ""
		}
	case failed:
		w.lastErr = o.err.Error()
		switch {
		case p.opts.BreakerThreshold <= 0: // breakers disabled
		case w.brk == breakerClosed:
			if w.consec++; w.consec >= p.opts.BreakerThreshold {
				w.brk = breakerOpen
				w.trips.Add(1)
			}
		case w.brk == breakerHalfOpen:
			// Live traffic failed while a probe was deciding: back to open
			// without counting a fresh trip.
			w.brk = breakerOpen
		}
	}
	tripped := w.brk != breakerClosed
	w.brkMu.Unlock()
	if o.kind == failed && tripped {
		p.ensureProbing()
	}
}

// post sends one evaluation request and classifies the reply. The caller
// (attemptHedged's launch) holds the in-flight semaphore slot for the
// duration of the exchange; requestTimeout caps it so a wedged worker
// fails the attempt instead of hanging it. ctx is the attempt's: once it
// is done, whatever went wrong is reported as cancelled.
func (p *Pool) post(ctx context.Context, w *workerState, problem string, cfgs []param.Config) (o outcome) {
	w.inflight.Add(1)
	defer func() {
		w.inflight.Add(-1)
		if o.kind != succeeded && ctx.Err() != nil {
			o.kind = cancelled
		}
	}()
	rctx := ctx
	if t := p.opts.requestTimeout; t > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	fail := func(err error) outcome {
		return outcome{kind: failed, err: fmt.Errorf("worker %s: %w", w.url, err)}
	}
	body, err := json.Marshal(EvaluateRequest{Problem: problem, Configs: cfgs})
	if err != nil {
		return outcome{kind: failed, err: err}
	}
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.url+"/evaluate", bytes.NewReader(body))
	if err != nil {
		return outcome{kind: failed, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	switch code := resp.StatusCode; {
	case code == http.StatusServiceUnavailable:
		// A load-shedding worker (or a drain-mode proxy in front of one):
		// backpressure, not an outage.
		after := parseRetryAfter(resp.Header.Get("Retry-After"))
		return outcome{kind: shed, after: after, err: fmt.Errorf("worker %s: 503: shedding load (retry after %v)", w.url, after)}
	case code != http.StatusOK:
		var e ErrorResponse
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		o := fail(fmt.Errorf("%d: %s", code, msg))
		if code >= 400 && code < 500 {
			// A protocol rejection (unknown problem, bad config), not a
			// worker outage: no other worker would answer differently.
			o.kind = rejected
		}
		return o
	}
	// The reply is bounded like the request that asked for it
	// (maxEvaluateBody): the coordinator does not buffer whatever a worker
	// chooses to send. A longer body fails as any malformed reply does.
	reply, err := io.ReadAll(io.LimitReader(resp.Body, maxEvaluateBody+1))
	if err == nil && len(reply) > maxEvaluateBody {
		err = fmt.Errorf("reply exceeds %d bytes", maxEvaluateBody)
	}
	if err != nil {
		return fail(fmt.Errorf("reading response: %w", err))
	}
	out, err := decodeObjectives(reply)
	if err != nil {
		return fail(fmt.Errorf("decoding response: %w", err))
	}
	if len(out) != len(cfgs) {
		return fail(fmt.Errorf("%d objective vectors for %d configs", len(out), len(cfgs)))
	}
	for i, objs := range out {
		if objs == nil {
			return fail(fmt.Errorf("nil objectives at position %d", i))
		}
	}
	return outcome{kind: succeeded, objs: out}
}

// parseRetryAfter reads a Retry-After header's delay-seconds form; 0 when
// absent or unparseable (the HTTP-date form is not worth supporting for
// an intra-fleet protocol).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
