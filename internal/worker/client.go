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
	"slices"
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
	// capped at RetryBackoffCap — capped exponential backoff with full
	// jitter, so simultaneous chunk failures (one sick worker fails many
	// chunks at once) decorrelate instead of re-striking in lockstep.
	RetryBackoff time.Duration
	// RetryBackoffCap caps the grown backoff interval (default 2s).
	RetryBackoffCap time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// worker's circuit breaker (default 5; negative disables breakers).
	// A tripped worker is excluded from primary and hedge dispatch and
	// re-probed via GET /healthz every ProbeInterval until healthy, at
	// which point it is readmitted automatically. See breaker.go.
	BreakerThreshold int
	// ProbeInterval is the tripped-worker health-probe period (default 1s).
	ProbeInterval time.Duration
	// Seed seeds the pool's jitter rng; pools with equal seeds draw the
	// same backoff schedule. The default (0) is fixed, not time-derived —
	// jitter exists to decorrelate a pool's own concurrent chunks, which
	// draw from one shared sequence either way.
	Seed int64
	// HedgeAfter is the straggler threshold: a request outstanding this
	// long is re-dispatched to a second worker, first reply wins. 0
	// derives the threshold adaptively from the observed per-configuration
	// service-time quantile (see hedgeQuantile); a negative value disables
	// hedging.
	HedgeAfter time.Duration
	// RequestTimeout is the hard per-request ceiling (default 15m). It is
	// the backstop that keeps a wedged worker — accepts the connection,
	// never answers — from hanging a run when hedging is still cold: the
	// attempt fails and the retry loop moves to another worker. Set it
	// above your slowest legitimate batch; negative disables it.
	RequestTimeout time.Duration
	// Client is the HTTP client for worker requests; nil selects a
	// default client (DefaultTransport dial timeouts, no overall timeout —
	// the per-request ceiling comes from RequestTimeout).
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
	brk     BreakerState
	consec  int    // consecutive failures while closed
	lastErr string // most recent failure; cleared on close
}

// Pool is a fleet of worker daemons plus the dispatch policy (sharding,
// bounded in-flight requests, retries, hedged straggler re-dispatch). One
// Pool is shared by every session of a coordinator daemon; Backend binds
// it to a problem name, yielding the core.Backend a run plugs in.
//
// Pools are safe for concurrent use.
type Pool struct {
	workers []*workerState
	opts    Options
	client  *http.Client
	sem     chan struct{} // bounds in-flight HTTP requests
	cursor  atomic.Int64  // round-robin worker pick

	winMu   sync.Mutex
	windows map[string]*latencyWindow // per-problem service times

	// batches/batchConfigs count backend-level dispatches: how many
	// EvaluateBatch calls reached the fleet and how many configurations
	// they carried. Their ratio is the average dispatched batch size — the
	// observable effect of the scheduler's cross-run batch coalescing.
	batches      atomic.Int64
	batchConfigs atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand // seeded backoff-jitter draws

	probeMu   sync.Mutex
	probing   bool          // health-probe loop running (breaker.go)
	done      chan struct{} // closed by Close; stops the probe loop
	closeOnce sync.Once
}

// latencyWindow is one problem's sliding window of service times per
// configuration (a request's service time ÷ the configurations it
// carried), feeding the adaptive hedge threshold. The unit is what lets a
// 4-configuration chunk and a 32-configuration chunk share one window.
// Windows are per problem because pooling them would be meaningless: a
// coordinator runs millisecond synthetic batches next to minutes-long SLAM
// batches, and a quantile over the mixture would hedge every legitimately
// slow batch immediately.
type latencyWindow struct {
	mu  sync.Mutex
	lat []time.Duration // ring buffer
	n   int             // total completions recorded
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
	if opts.RetryBackoffCap <= 0 {
		opts.RetryBackoffCap = defaultRetryBackoffCap
	}
	if opts.RetryBackoffCap < opts.RetryBackoff {
		opts.RetryBackoffCap = opts.RetryBackoff
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = defaultBreakerThreshold
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = defaultProbeInterval
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = defaultRequestTimeout
	}
	client := opts.Client
	if client == nil {
		// No client-level timeout: a SLAM evaluation batch can
		// legitimately run for minutes, and the per-request ceiling is
		// already applied via RequestTimeout in post. DefaultTransport
		// supplies the dial timeout for unreachable hosts.
		client = &http.Client{}
	}
	p := &Pool{
		opts:    opts,
		client:  client,
		sem:     make(chan struct{}, maxInFlightPerWorker*len(urls)),
		windows: make(map[string]*latencyWindow),
		rng:     rand.New(rand.NewSource(opts.Seed)),
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
// only) before they can reach the engine or the shared memo-cache. 0
// skips the check.
func (p *Pool) Backend(problem string, objectives int) core.Backend {
	return &remoteBackend{pool: p, problem: problem, objectives: objectives}
}

// Stats snapshots every worker's health counters and breaker state, in
// pool order.
func (p *Pool) Stats() []WorkerStats {
	out := make([]WorkerStats, len(p.workers))
	for i, w := range p.workers {
		state, trips, lastErr := p.breakerStats(i)
		out[i] = WorkerStats{
			URL:       w.url,
			Requests:  w.requests.Load(),
			Failures:  w.failures.Load(),
			Hedges:    w.hedges.Load(),
			InFlight:  w.inflight.Load(),
			Breaker:   state,
			Trips:     trips,
			LastError: lastErr,
		}
	}
	return out
}

// Size returns the number of workers in the pool.
func (p *Pool) Size() int { return len(p.workers) }

// BatchStats reports backend-level dispatch totals: EvaluateBatch calls
// that reached the fleet and the configurations they carried. With the
// scheduler's cross-run coalescing active, configs/batches grows — the
// fleet sees fewer, larger requests for the same evaluation volume.
func (p *Pool) BatchStats() (batches, configs int64) {
	return p.batches.Load(), p.batchConfigs.Load()
}

// remoteBackend is the per-problem core.Backend view of a Pool.
type remoteBackend struct {
	pool       *Pool
	problem    string
	objectives int // expected objective-vector length; 0 = unchecked
}

// EvaluateBatch implements core.Backend: the batch is cut into even chunks
// across the healthy fleet (planChunks), each chunk is dispatched to a
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
	bounds := planChunks(n, p.healthy(), p.opts.ChunkSize)
	for i := 1; i < len(bounds); i++ {
		lo, hi := bounds[i-1], bounds[i]
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			objs, err := p.evalChunk(ctx, b.problem, cfgs[lo:hi])
			if err == nil && b.objectives > 0 {
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

// permanentError marks worker replies retrying cannot fix — 4xx protocol
// rejections like an unknown problem name or an inadmissible
// configuration. Every worker of a consistent fleet would answer the same,
// so the dispatch fails fast instead of burning its retry budget.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// backpressureError marks a 503 from a load-shedding worker (server.go's
// shed limit): the worker is healthy but saturated, so the reply is
// honored as backpressure — wait out the advertised Retry-After and
// re-attempt without charging the retry budget, the failure counters, or
// the circuit breaker.
type backpressureError struct {
	url   string
	after time.Duration // advertised Retry-After; 0 when absent
}

func (e *backpressureError) Error() string {
	return fmt.Sprintf("worker %s: 503: shedding load (retry after %v)", e.url, e.after)
}

// retryDelay returns the pause before retry attempt (1-based): full
// jitter over an exponentially growing base capped at RetryBackoffCap,
// i.e. uniform in [0, min(cap, RetryBackoff·2^(attempt−1))]. Randomizing
// the whole interval (not just a fringe) is what breaks the thundering
// herd of many chunks failing on the same worker at the same instant.
func (p *Pool) retryDelay(attempt int) time.Duration {
	base := p.opts.RetryBackoffCap
	if shift := attempt - 1; shift >= 0 && shift < 20 {
		if b := p.opts.RetryBackoff << shift; b < base {
			base = b
		}
	}
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return time.Duration(p.rng.Int63n(int64(base) + 1))
}

// evalChunk runs one chunk to completion: up to 1+Retries hedged attempts,
// each avoiding every worker that already failed this chunk (primaries and
// hedge legs alike) while an untried one remains — so a healthy worker is
// always reached before the budget can exhaust on known-bad ones. Each
// retry waits a jittered exponential backoff (retryDelay). Permanent
// (4xx) rejections are not retried; 503 load-shed replies are waited out
// without consuming the retry budget (up to maxShedWaits pauses).
func (p *Pool) evalChunk(ctx context.Context, problem string, cfgs []param.Config) ([][]float64, error) {
	var lastErr error
	failed := make(map[int]bool) // workers that failed this chunk
	var delay time.Duration
	shedWaits := 0
	for attempt := 0; attempt <= p.opts.Retries; attempt++ {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if len(failed) >= len(p.workers) {
			// Every worker failed once already; transient outages may have
			// passed, so open the full fleet back up.
			clear(failed)
		}
		objs, attemptFailed, err := p.attemptHedged(ctx, failed, problem, cfgs)
		if err == nil {
			return objs, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, fmt.Errorf("worker: chunk of %d configs rejected: %w", len(cfgs), err)
		}
		for _, w := range attemptFailed {
			failed[w] = true
		}
		var bp *backpressureError
		if errors.As(err, &bp) && shedWaits < maxShedWaits {
			// Load shedding is backpressure, not failure: honor the
			// advertised pause (at least one base backoff, jittered) and
			// re-attempt — against another worker first, since this one is
			// in the failed set for the chunk — without spending a retry.
			shedWaits++
			attempt--
			delay = min(max(bp.after, p.retryDelay(1)), maxShedPause)
			continue
		}
		lastErr = err
		delay = p.retryDelay(attempt + 1)
	}
	return nil, fmt.Errorf("worker: chunk of %d configs failed after %d attempts: %w",
		len(cfgs), p.opts.Retries+1, lastErr)
}

// attemptHedged runs one attempt: a request to a primary worker picked
// outside the avoid set and, if it is still outstanding past the hedge
// threshold, a second request to another worker. The first successful
// reply wins and cancels the loser; the attempt fails only when every
// dispatched leg has failed. It reports the workers whose requests failed
// so the retry loop can route around them.
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
func (p *Pool) attemptHedged(ctx context.Context, avoid map[int]bool, problem string, cfgs []param.Config) ([][]float64, []int, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in the losing leg

	replies := make(chan hedgeReply, 2)
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
			objs, err := p.post(cctx, w, problem, cfgs)
			switch {
			case err == nil:
				// Counts for the breaker whether this leg wins or loses:
				// the worker completed real service either way.
				p.recordSuccess(worker)
			case cctx.Err() == nil:
				var bp *backpressureError
				if !errors.As(err, &bp) {
					// Backpressure is a healthy worker protecting itself;
					// everything else is a failure, for the counters and
					// the breaker alike (permanent 4xx rejections are kept
					// out of the breaker by recordFailure's caller below).
					w.failures.Add(1)
					var perm *permanentError
					if !errors.As(err, &perm) {
						p.recordFailure(worker, err)
					}
				}
			}
			replies <- hedgeReply{objs, err, worker, time.Since(start) / time.Duration(len(cfgs))}
		}()
		return true
	}

	primary := p.pick(avoid)
	if !launch(primary, false) {
		return nil, nil, ctx.Err()
	}
	outstanding := 1
	var attemptFailed []int
	var hedgeTimer <-chan time.Time
	if d := p.hedgeDelay(problem, len(cfgs)); d > 0 && len(p.workers) > 1 {
		hedgeTimer = time.After(d)
	}
	var lastErr error
	for {
		select {
		case r := <-replies:
			outstanding--
			if r.err == nil {
				p.window(problem).record(r.perConfig)
				if outstanding > 0 {
					p.drainLosers(problem, replies, outstanding)
				}
				return r.objs, attemptFailed, nil
			}
			attemptFailed = append(attemptFailed, r.worker)
			var perm *permanentError
			if errors.As(r.err, &perm) {
				// A protocol rejection is definitive for the whole fleet;
				// do not wait for (or spend) a hedge leg on it. The
				// still-outstanding leg (if any) is cancelled by the
				// deferred cancel and drains through the buffered channel.
				return nil, attemptFailed, r.err
			}
			lastErr = r.err
			if outstanding == 0 {
				return nil, attemptFailed, lastErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			hedgeAvoid := map[int]bool{primary: true}
			for w := range avoid {
				hedgeAvoid[w] = true
			}
			if len(hedgeAvoid) >= len(p.workers) {
				hedgeAvoid = map[int]bool{primary: true}
			}
			if second := p.pick(hedgeAvoid); second != primary && launch(second, true) {
				outstanding++
			}
		case <-ctx.Done():
			return nil, attemptFailed, ctx.Err()
		}
	}
}

// hedgeReply is one leg's outcome in a hedged attempt.
type hedgeReply struct {
	objs   [][]float64
	err    error
	worker int
	// perConfig is the leg's service time ÷ the chunk's configurations,
	// the unit latencyWindow keeps.
	perConfig time.Duration
}

// drainLosers collects the outstanding legs of a decided hedged attempt
// in the background. A loser that completed successfully before the
// winner's cancellation landed did real, measurable service — its
// per-configuration time feeds the latency window exactly once (here, and
// only here: the winner path above records only the winning leg), so a
// worker's hedge losses count as completions in the health snapshot
// instead of vanishing from it. Cancelled or failed losers were already
// accounted for by the launch goroutine.
func (p *Pool) drainLosers(problem string, replies <-chan hedgeReply, outstanding int) {
	go func() {
		for i := 0; i < outstanding; i++ {
			if r := <-replies; r.err == nil {
				p.window(problem).record(r.perConfig)
			}
		}
	}()
}

// post sends one evaluation request and decodes the reply. The caller
// (attemptHedged's launch) holds the in-flight semaphore slot for the
// duration of the exchange; RequestTimeout caps it so a wedged worker
// fails the attempt instead of hanging it.
func (p *Pool) post(ctx context.Context, w *workerState, problem string, cfgs []param.Config) ([][]float64, error) {
	if t := p.opts.RequestTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	w.inflight.Add(1)
	defer w.inflight.Add(-1)

	body, err := json.Marshal(EvaluateRequest{Problem: problem, Configs: cfgs})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/evaluate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusServiceUnavailable {
			// A load-shedding worker (or a drain-mode proxy in front of
			// one): backpressure, not an outage. Honored by evalChunk
			// without charging retries, failures, or the breaker.
			return nil, &backpressureError{url: w.url, after: parseRetryAfter(resp.Header.Get("Retry-After"))}
		}
		var e ErrorResponse
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		err := fmt.Errorf("worker %s: %d: %s", w.url, resp.StatusCode, msg)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			// 4xx is a protocol rejection (unknown problem, bad config),
			// not a worker outage: no other worker of a consistent fleet
			// would answer differently, so mark it non-retryable.
			return nil, &permanentError{err: err}
		}
		return nil, err
	}
	reply, err := readReply(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("worker %s: reading response: %w", w.url, err)
	}
	out, err := decodeObjectives(reply)
	if err != nil {
		return nil, fmt.Errorf("worker %s: decoding response: %w", w.url, err)
	}
	if len(out) != len(cfgs) {
		return nil, fmt.Errorf("worker %s: %d objective vectors for %d configs", w.url, len(out), len(cfgs))
	}
	for i, objs := range out {
		if objs == nil {
			return nil, fmt.Errorf("worker %s: nil objectives at position %d", w.url, i)
		}
	}
	return out, nil
}

// readReply reads a peer's reply body, bounded like the request that asked
// for it (maxEvaluateBody): the coordinator does not buffer whatever a
// worker or a bridged endpoint chooses to send. A longer body is an error,
// handled as any malformed reply is.
func readReply(body io.Reader) ([]byte, error) {
	reply, err := io.ReadAll(io.LimitReader(body, maxEvaluateBody+1))
	if err == nil && len(reply) > maxEvaluateBody {
		err = fmt.Errorf("reply exceeds %d bytes", maxEvaluateBody)
	}
	return reply, err
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

// pick returns the next worker index round-robin, preferring workers that
// are neither in the avoid set nor tripped by their circuit breaker.
// Tripped workers supersede the per-chunk avoid set — they are skipped
// before a chunk ever fails on them — but only while an alternative
// exists: with every candidate tripped, pick degrades to avoid-only
// round-robin (an all-open fleet must keep receiving traffic, since a
// success is what readmits a worker fastest), and with everything
// avoided too it degrades to plain round-robin rather than spinning.
func (p *Pool) pick(avoid map[int]bool) int {
	n := len(p.workers)
	start := int(p.cursor.Add(1)-1) % n
	if start < 0 {
		start += n // cursor wrap: Add is modular int64 arithmetic
	}
	for i := 0; i < n; i++ {
		if w := (start + i) % n; !avoid[w] && !p.tripped(w) {
			return w
		}
	}
	for i := 0; i < n; i++ {
		if w := (start + i) % n; !avoid[w] {
			return w
		}
	}
	return start
}

// window returns the named problem's latency window, creating it on first
// use.
func (p *Pool) window(problem string) *latencyWindow {
	p.winMu.Lock()
	defer p.winMu.Unlock()
	w, ok := p.windows[problem]
	if !ok {
		w = &latencyWindow{lat: make([]time.Duration, 0, latencyWindowSize)}
		p.windows[problem] = w
	}
	return w
}

// record appends one request's per-configuration service time to the
// sliding window.
func (w *latencyWindow) record(d time.Duration) {
	w.mu.Lock()
	if len(w.lat) < latencyWindowSize {
		w.lat = append(w.lat, d)
	} else {
		w.lat[w.n%latencyWindowSize] = d
	}
	w.n++
	w.mu.Unlock()
}

// quantile returns the q-quantile of the windowed per-configuration
// service times, or 0 when fewer than hedgeMinSamples completions have
// been recorded.
func (w *latencyWindow) quantile(q float64) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < hedgeMinSamples {
		return 0
	}
	window := append([]time.Duration(nil), w.lat...)
	slices.Sort(window)
	i := int(q * float64(len(window)))
	if i >= len(window) {
		i = len(window) - 1
	}
	return window[i]
}

// hedgeDelay returns the current straggler threshold for a request of
// configs configurations of one problem: the fixed HedgeAfter when
// configured (whatever the request's size), otherwise the hedgeQuantile of
// that problem's observed per-configuration service times × configs. 0
// means "do not hedge" (hedging disabled, or the adaptive window has too
// few samples to trust); RequestTimeout still bounds the attempt either
// way.
func (p *Pool) hedgeDelay(problem string, configs int) time.Duration {
	if p.opts.HedgeAfter > 0 {
		return p.opts.HedgeAfter
	}
	if p.opts.HedgeAfter < 0 {
		return 0
	}
	return p.window(problem).quantile(hedgeQuantile) * time.Duration(configs)
}
