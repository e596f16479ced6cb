package worker

import (
	"context"
	"io"
	"net/http"
	"time"
)

// This file is the pool's placement stage: which worker a request goes
// to. Every placement — the chunk plan's worker count, each primary, retry
// and hedge leg — reads one candidate set (candidates) and walks it
// round-robin (pick). Health enters it through each worker's circuit
// breaker. The retry policy reacts per chunk: a flapping worker would keep
// receiving primaries until each individual chunk failed on it, burning a
// retry (and a backoff pause) every time. The breaker reacts per worker:
// after BreakerThreshold consecutive failures the worker leaves the
// candidate set, a background loop probes its GET /healthz at
// ProbeInterval, and the first healthy probe (or a successful stray
// request) readmits it. Breaker state rides along in WorkerStats, so
// GET /stats on the coordinator shows which workers are out and why.

// breakerState is one worker's circuit-breaker position.
type breakerState int32

const (
	// breakerClosed is the healthy state: the worker receives traffic.
	breakerClosed breakerState = iota
	// breakerOpen marks a tripped worker: out of the candidate set while
	// an alternative exists, awaiting its next health probe.
	breakerOpen
	// breakerHalfOpen marks a tripped worker whose health probe is in
	// flight; the probe's outcome decides readmission or re-opening.
	breakerHalfOpen
)

// breakerNames are the states' names in WorkerStats.Breaker.
var breakerNames = [...]string{"closed", "open", "half-open"}

// probeTimeout caps one health probe's HTTP exchange; a wedged worker
// must fail its probe, not hang the probe loop.
const probeTimeout = 2 * time.Second

// candidates returns, in pool order, the workers a request may be placed
// on: those with a closed breaker outside avoid; failing that, those
// outside avoid (an all-tripped fleet must keep receiving traffic, since a
// success is what readmits a worker fastest); failing that, every worker.
// The set is never empty.
func (p *Pool) candidates(avoid map[int]bool) []int {
	set := make([]int, 0, len(p.workers))
	for fallback := 0; len(set) == 0; fallback++ {
		for i := range p.workers {
			if fallback == 2 || !avoid[i] && (fallback == 1 || !p.tripped(i)) {
				set = append(set, i)
			}
		}
	}
	return set
}

// pick places one request: the next worker of candidates(avoid),
// round-robin over the set itself, so consecutive requests spread evenly
// over the candidates whichever workers are left out of it.
func (p *Pool) pick(avoid map[int]bool) int {
	set := p.candidates(avoid)
	return set[uint64(p.cursor.Add(1)-1)%uint64(len(set))]
}

// tripped reports whether worker i's breaker is anything but closed.
func (p *Pool) tripped(i int) bool {
	w := p.workers[i]
	w.brkMu.Lock()
	defer w.brkMu.Unlock()
	return w.brk != breakerClosed
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
// check runs under probeMu so a trip racing the shutdown restarts a
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
		for i := range p.workers {
			p.probeWorker(i)
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
// held, so an account call that just tripped a worker either sees
// probing=true (loop continues) or runs ensureProbing after the exit.
func (p *Pool) anyTrippedLocked() bool {
	for i := range p.workers {
		if p.tripped(i) {
			return true
		}
	}
	return false
}

// probeWorker health-checks worker i if its breaker is non-closed. The
// breaker is marked half-open for the probe's duration, so stats can show
// the readmission attempt in progress; a live outcome that lands meanwhile
// (account) decides instead of the probe.
func (p *Pool) probeWorker(i int) {
	w := p.workers[i]
	w.brkMu.Lock()
	if w.brk == breakerClosed {
		w.brkMu.Unlock()
		return
	}
	w.brk = breakerHalfOpen
	w.brkMu.Unlock()

	healthy := p.probe(w.url)

	w.brkMu.Lock()
	defer w.brkMu.Unlock()
	switch {
	case w.brk != breakerHalfOpen:
	case healthy:
		w.brk = breakerClosed
		w.consec = 0
		w.lastErr = ""
	default:
		w.brk = breakerOpen
	}
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

// Close stops the pool's background health-probe loop. Dispatch remains
// usable afterwards — only probing (and with it automatic readmission of
// tripped workers) stops; a success on a tripped worker still readmits
// it. Closing twice is a no-op.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.done) })
}
