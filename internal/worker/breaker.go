package worker

import (
	"context"
	"io"
	"net/http"
	"time"
)

// This file is the pool's circuit-breaker layer. The retry loop in
// client.go reacts per chunk: a flapping worker keeps receiving primaries
// until each individual chunk fails on it, burning a retry (and a backoff
// pause) every time. The breaker reacts per worker: after
// BreakerThreshold consecutive failures the worker is tripped out of
// primary and hedge dispatch entirely, a background loop probes its
// GET /healthz at ProbeInterval, and the first healthy probe (or a
// successful stray request) readmits it. Breaker state rides along in
// WorkerStats, so GET /stats on the coordinator shows which workers are
// out and why.

// BreakerState is one worker's circuit-breaker position.
type BreakerState int32

const (
	// BreakerClosed is the healthy state: the worker receives traffic.
	BreakerClosed BreakerState = iota
	// BreakerOpen marks a tripped worker: excluded from dispatch while an
	// alternative exists, awaiting its next health probe.
	BreakerOpen
	// BreakerHalfOpen marks a tripped worker whose health probe is in
	// flight; the probe's outcome decides readmission or re-opening.
	BreakerHalfOpen
)

// String returns the stats-facing name of the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// probeTimeout caps one health probe's HTTP exchange; a wedged worker
// must fail its probe, not hang the probe loop.
const probeTimeout = 2 * time.Second

// breakerEnabled reports whether breakers are active (a negative
// threshold disables them).
func (p *Pool) breakerEnabled() bool { return p.opts.BreakerThreshold > 0 }

// tripped reports whether worker i's breaker is anything but closed.
func (p *Pool) tripped(i int) bool {
	w := p.workers[i]
	w.brkMu.Lock()
	defer w.brkMu.Unlock()
	return w.brk != BreakerClosed
}

// healthy counts the workers a new chunk can be routed to: those whose
// breaker is closed, or the whole fleet when none is — pick degrades the
// same way, so the chunk plan and the placement agree on the fleet's size.
func (p *Pool) healthy() int {
	n := 0
	for i := range p.workers {
		if !p.tripped(i) {
			n++
		}
	}
	if n == 0 {
		return len(p.workers)
	}
	return n
}

// recordSuccess resets worker i's breaker on any completed exchange —
// including a hedge loser's, and including traffic that reached an open
// worker because the whole fleet was tripped: a real success is better
// evidence of health than any probe.
func (p *Pool) recordSuccess(i int) {
	w := p.workers[i]
	w.brkMu.Lock()
	w.consec = 0
	if w.brk != BreakerClosed {
		w.brk = BreakerClosed
		w.lastErr = ""
	}
	w.brkMu.Unlock()
}

// recordFailure notes a transient request failure against worker i's
// breaker, tripping it at the threshold. Permanent (4xx) rejections and
// backpressure (503) replies never reach here — they say nothing about
// the worker's health.
func (p *Pool) recordFailure(i int, err error) {
	w := p.workers[i]
	w.brkMu.Lock()
	w.lastErr = err.Error()
	if p.breakerEnabled() {
		switch w.brk {
		case BreakerClosed:
			w.consec++
			if w.consec >= p.opts.BreakerThreshold {
				w.brk = BreakerOpen
				w.trips.Add(1)
			}
		case BreakerHalfOpen:
			// Live traffic failed while a probe was deciding: back to open
			// without counting a fresh trip.
			w.brk = BreakerOpen
		}
	}
	tripped := w.brk != BreakerClosed
	w.brkMu.Unlock()
	if tripped {
		p.ensureProbing()
	}
}

// ensureProbing starts the background health-probe loop if it is not
// already running. The loop is lazy: a pool with no tripped workers has
// no probe goroutine at all.
func (p *Pool) ensureProbing() {
	p.probeMu.Lock()
	defer p.probeMu.Unlock()
	if p.probing {
		return
	}
	p.probing = true
	go p.probeLoop()
}

// probeLoop ticks at ProbeInterval, probing every non-closed worker's
// GET /healthz: a 200 readmits it (open → half-open → closed), anything
// else re-opens it. The loop exits once every breaker is closed — the
// exit re-checks under probeMu so a trip racing the shutdown restarts a
// fresh loop instead of being orphaned — or when the pool is closed.
func (p *Pool) probeLoop() {
	t := time.NewTicker(p.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			p.probeMu.Lock()
			p.probing = false
			p.probeMu.Unlock()
			return
		case <-t.C:
		}
		anyOpen := false
		for i := range p.workers {
			if p.probeWorker(i) {
				anyOpen = true
			}
		}
		if anyOpen {
			continue
		}
		p.probeMu.Lock()
		if !p.anyTrippedLocked() {
			p.probing = false
			p.probeMu.Unlock()
			return
		}
		p.probeMu.Unlock()
	}
}

// anyTrippedLocked scans for a non-closed breaker; called with probeMu
// held, so a recordFailure that just tripped a worker either sees
// probing=true (loop continues) or runs ensureProbing after the exit.
func (p *Pool) anyTrippedLocked() bool {
	for _, w := range p.workers {
		w.brkMu.Lock()
		open := w.brk != BreakerClosed
		w.brkMu.Unlock()
		if open {
			return true
		}
	}
	return false
}

// probeWorker health-checks worker i if its breaker is non-closed,
// reporting whether the breaker is still open afterwards. The breaker is
// marked half-open for the probe's duration, so stats can show the
// readmission attempt in progress.
func (p *Pool) probeWorker(i int) bool {
	w := p.workers[i]
	w.brkMu.Lock()
	if w.brk == BreakerClosed {
		w.brkMu.Unlock()
		return false
	}
	w.brk = BreakerHalfOpen
	w.brkMu.Unlock()

	ok := p.probe(w.url)

	w.brkMu.Lock()
	defer w.brkMu.Unlock()
	if !ok {
		if w.brk == BreakerHalfOpen {
			w.brk = BreakerOpen
		}
		return w.brk != BreakerClosed
	}
	if w.brk == BreakerHalfOpen { // a concurrent live success may have closed it already
		w.brk = BreakerClosed
		w.consec = 0
		w.lastErr = ""
	}
	return w.brk != BreakerClosed
}

// probe performs one GET /healthz exchange, true on a 200.
func (p *Pool) probe(url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode == http.StatusOK
}

// breakerStats snapshots worker i's breaker for WorkerStats.
func (p *Pool) breakerStats(i int) (state string, trips int64, lastErr string) {
	w := p.workers[i]
	w.brkMu.Lock()
	defer w.brkMu.Unlock()
	return w.brk.String(), w.trips.Load(), w.lastErr
}

// Close stops the pool's background health-probe loop. Dispatch remains
// usable afterwards — only probing (and with it automatic readmission of
// tripped workers) stops; a success on a tripped worker still readmits
// it. Closing twice is a no-op.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.done) })
}
