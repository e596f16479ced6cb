package worker

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// This file is the pool's policy stage: what to do after each leg of a
// chunk's request settles — wait for the other leg, finish, try again
// after a pause, or give up — and when to hedge. chunk.settle decides from
// the chunk's outcomes so far, the seeded jitter draw (retryDelay) and
// nothing else, so it is tested as a table without HTTP or sleeps;
// client.go's evalChunk and attemptHedged only carry out what it decides.

// verdict is the policy's decision after one leg of an attempt settles.
type verdict int

const (
	await  verdict = iota // another leg is still out: wait for it
	finish                // the leg succeeded: the chunk is done
	retry                 // the attempt failed: attempt again after a pause
	giveUp                // the chunk fails
)

// chunk is one chunk's dispatch history — what the policy reads.
type chunk struct {
	size    int                           // configurations in the chunk
	retries int                           // Options.Retries
	workers int                           // fleet size
	backoff func(retry int) time.Duration // seeded jitter draw (Pool.retryDelay)
	spent   int                           // attempts charged to the retry budget
	sheds   int                           // shed replies waited out
	failed  map[int]bool                  // workers whose leg failed this chunk
}

// settle records one leg's outcome, with outstanding legs of the same
// attempt still out, and decides what follows. A rejection (4xx) is
// definitive for a consistent fleet, so the chunk gives up at once without
// spending a retry or waiting for a hedge leg. Any other failure puts the
// worker in the failed set, which the next attempt's placement avoids, so
// a healthy worker is reached before the budget can exhaust on known-bad
// ones; once every worker is in it, transient outages may have passed and
// the set clears. Once no leg is out, a shed reply (503) is backpressure,
// not failure: it is waited out for its Retry-After, at least one base
// backoff and at most maxShedPause, without spending a retry — up to
// maxShedWaits times per chunk, after which shedding counts as a failure.
// A failure spends a retry and waits a jittered backoff; past 1+retries
// attempts the chunk gives up.
func (c *chunk) settle(o outcome, outstanding int) (v verdict, pause time.Duration, err error) {
	switch o.kind {
	case succeeded:
		return finish, 0, nil
	case rejected:
		return giveUp, 0, fmt.Errorf("worker: chunk of %d configs rejected: %w", c.size, o.err)
	}
	c.failed[o.worker] = true
	if outstanding > 0 {
		return await, 0, nil
	}
	if len(c.failed) >= c.workers {
		clear(c.failed)
	}
	if o.kind == shed && c.sheds < maxShedWaits {
		c.sheds++
		return retry, min(max(o.after, c.backoff(1)), maxShedPause), nil
	}
	if c.spent++; c.spent > c.retries {
		return giveUp, 0, fmt.Errorf("worker: chunk of %d configs failed after %d attempts: %w", c.size, c.retries+1, o.err)
	}
	return retry, c.backoff(c.spent), nil
}

// hedgeAvoid is the avoid set for a hedge leg beside primary: the primary
// and every worker that failed this chunk, or the primary alone when that
// would be the whole fleet.
func (c *chunk) hedgeAvoid(primary int) map[int]bool {
	avoid := map[int]bool{primary: true}
	for w := range c.failed {
		avoid[w] = true
	}
	if len(avoid) >= c.workers {
		return map[int]bool{primary: true}
	}
	return avoid
}

// retryDelay returns the pause before retry attempt (1-based): full
// jitter over an exponentially growing base capped at retryBackoffCap,
// i.e. uniform in [0, min(cap, RetryBackoff·2^(attempt−1))]. Randomizing
// the whole interval (not just a fringe) is what breaks the thundering
// herd of many chunks failing on the same worker at the same instant.
func (p *Pool) retryDelay(attempt int) time.Duration {
	base := p.opts.retryBackoffCap
	if shift := attempt - 1; shift >= 0 && shift < 20 {
		if b := p.opts.RetryBackoff << shift; b < base {
			base = b
		}
	}
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return time.Duration(p.rng.Int63n(int64(base) + 1))
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
	return window[min(int(q*float64(len(window))), len(window)-1)]
}

// hedgeDelay returns the current straggler threshold for a request of
// configs configurations of one problem: the fixed HedgeAfter when
// configured (whatever the request's size), otherwise the hedgeQuantile of
// that problem's observed per-configuration service times × configs. 0
// means "do not hedge" (hedging disabled, a one-worker fleet with nowhere
// to hedge to, or an adaptive window with too few samples to trust);
// requestTimeout still bounds the attempt either way.
func (p *Pool) hedgeDelay(problem string, configs int) time.Duration {
	switch {
	case p.opts.HedgeAfter < 0 || len(p.workers) < 2:
		return 0
	case p.opts.HedgeAfter > 0:
		return p.opts.HedgeAfter
	}
	return p.window(problem).quantile(hedgeQuantile) * time.Duration(configs)
}
