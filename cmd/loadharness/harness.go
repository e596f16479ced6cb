package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/param"
	"repro/internal/sched"
	"repro/internal/server"
)

// config is the harness configuration; see main.go for the flag docs.
type config struct {
	Addr             string
	Clients          int
	Tenants          int
	Duration         time.Duration
	Grace            time.Duration
	Seed             int64
	Problem          string
	Executors        int
	MaxRunning       int
	TenantMaxRunning int
	TenantMaxQueued  int
	RunSeeds         int
	P99BoundMS       float64
	RSSBoundMB       float64
	RequireCoalesce  bool
	Verbose          bool
}

func (c config) executors() int {
	if c.Executors > 0 {
		return c.Executors
	}
	return min(256, 32*runtime.NumCPU())
}

// thinkBase scales the crowd's think-time distribution to the run length so
// short smoke crowds and long soak crowds both cycle every tenant through
// multiple submissions.
func (c config) thinkBase() time.Duration {
	return max(20*time.Millisecond, c.Duration/100)
}

// report is the harness outcome: the metrics of the "LOAD:" lines plus the
// assertion failures (empty on success).
type report struct {
	Clients     int
	Completed   int64
	Cancelled   int64
	Rejected429 int64
	HTTPErrors  int64
	ByTenant    []int64 // completed runs per tenant

	PostP50MS, PostP99MS float64 // client-observed POST /runs latency
	WaitP50MS, WaitP99MS float64 // scheduler submit→dispatch wait

	MaxQueueDepth   int
	QuotaViolations int64
	PeakRSSMB       float64
	CoalesceRate    float64
	CacheHits       int64
	CacheMisses     int64
	CoalesceHits    int64 // memo-cache singleflight waits
	Elapsed         time.Duration

	Failures []string
}

// client is one synthetic crowd member. The struct stays small on purpose:
// 10^5..10^6 of them must fit comfortably in memory (the harness is
// event-driven, not goroutine-per-client — 10^5 goroutine stacks alone
// would dwarf the daemon under test).
type client struct {
	id     int
	tenant int
	rng    *rand.Rand
	speed  float64 // device RelativeSpeed, heavy-tailed across the market
	state  int
	runID  string
}

const (
	stSubmit = iota
	stPoll
)

// event is one scheduled client wake-up.
type event struct {
	at time.Time
	c  *client
}

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() time.Time    { return h[0].at }
func (h *eventHeap) popEvent() event   { return heap.Pop(h).(event) }
func (h *eventHeap) pushEvent(e event) { heap.Push(h, e) }

// harness drives one crowd run.
type harness struct {
	cfg  config
	base string
	hc   *http.Client
	out  io.Writer

	deadline time.Time
	hardStop time.Time

	mu     sync.Mutex
	events eventHeap
	wake   chan struct{}
	live   int // clients still in the simulation

	submitted   atomic.Int64
	completed   atomic.Int64
	cancelled   atomic.Int64
	rejected429 atomic.Int64
	httpErrors  atomic.Int64
	byTenant    []atomic.Int64

	latMu   sync.Mutex
	postLat []float64 // ms

	statMu          sync.Mutex
	maxQueueDepth   int
	quotaViolations int64
	lastStats       server.Stats // Sched never nil
}

// run executes the whole harness: embed (or attach to) a daemon, release
// the crowd, drain it, poll stats throughout, then assert and report.
func run(cfg config, out io.Writer) (*report, error) {
	if cfg.Tenants < 1 || cfg.Clients < 1 {
		return nil, errors.New("need at least one tenant and one client")
	}
	if cfg.RunSeeds < 1 {
		cfg.RunSeeds = 1
	}
	base := cfg.Addr
	var shutdown func()
	if base == "" {
		var err error
		base, shutdown, err = startEmbedded(cfg)
		if err != nil {
			return nil, fmt.Errorf("starting embedded daemon: %w", err)
		}
		defer shutdown()
	}
	h := &harness{
		cfg:  cfg,
		base: strings.TrimRight(base, "/"),
		out:  out,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.executors() + 8,
				MaxIdleConnsPerHost: cfg.executors() + 8,
			},
		},
		wake:      make(chan struct{}, 1),
		byTenant:  make([]atomic.Int64, cfg.Tenants),
		lastStats: server.Stats{Sched: &sched.Stats{}},
	}

	start := time.Now()
	h.deadline = start.Add(cfg.Duration)
	h.hardStop = h.deadline.Add(cfg.Grace)

	h.seedCrowd()
	statsDone := make(chan struct{})
	go h.watchStats(statsDone)
	h.loop()
	close(statsDone)
	h.pollStats() // final snapshot after the crowd drained

	rep := h.buildReport(time.Since(start))
	h.printReport(rep)
	return rep, nil
}

// measureCost is the embedded daemon's simulated time to measure one
// configuration. The synthetic problem alone answers in microseconds, so
// duplicate-seed runs would seldom have a miss in flight at the same
// moment and the memo-cache's singleflight would seldom have a wait to
// count. Only misses pay it: a configuration is measured once per crowd.
const measureCost = 500 * time.Microsecond

// startEmbedded boots a real daemon — manager, scheduler, HTTP server — on
// a loopback port, serving the dataset-free synthetic problem at
// measureCost per configuration.
func startEmbedded(cfg config) (base string, shutdown func(), err error) {
	p := catalog.Synthetic()
	eval := p.Eval
	p.Eval = core.EvaluatorFunc(func(c param.Config) []float64 {
		time.Sleep(measureCost)
		return eval.Evaluate(c)
	})
	mgr := server.NewManagerConfig(server.Config{
		MaxSessions: 20_000,
		SessionTTL:  time.Minute,
		Sched: &sched.Config{
			MaxRunning: cfg.MaxRunning,
			Quota: sched.TenantQuota{
				MaxRunning: cfg.TenantMaxRunning,
				MaxQueued:  cfg.TenantMaxQueued,
			},
		},
	}, p)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mgr.Handler()}
	go func() { _ = srv.Serve(ln) }()
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
		_ = srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// seedCrowd builds the client population over the device market and
// schedules every join, staggered across the first part of the window. The
// first 2×MaxRunning clients are duplicate-seed "primers" that join
// immediately: their identical runs dispatch together into the idle fleet,
// deliberately overlapping in flight so the memo-cache singleflight dedupes
// across runs from the very start.
func (h *harness) seedCrowd() {
	devices := device.MarketDevices(min(h.cfg.Clients, 1024), h.cfg.Seed)
	ramp := h.cfg.Duration / 2
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.events = make(eventHeap, 0, h.cfg.Clients)
	primers := min(h.cfg.Clients, 2*max(h.cfg.MaxRunning, 1))
	for i := 0; i < h.cfg.Clients; i++ {
		c := &client{
			id:     i,
			tenant: i % h.cfg.Tenants,
			rng:    rand.New(rand.NewSource(h.cfg.Seed*1_000_003 + int64(i))),
			speed:  devices[i%len(devices)].RelativeSpeed(),
			state:  stSubmit,
		}
		at := now
		if i >= primers {
			at = now.Add(time.Duration(c.rng.Float64() * float64(ramp)))
		}
		h.events.pushEvent(event{at: at, c: c})
		h.live++
	}
}

// loop is the event dispatcher: it feeds due clients to a bounded executor
// pool and sleeps until the next wake-up. This is what lets one process
// simulate 10^5+ clients — concurrency is bounded by the executor count,
// not the crowd size.
func (h *harness) loop() {
	work := make(chan *client)
	var wg sync.WaitGroup
	for i := 0; i < h.cfg.executors(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				h.step(c)
			}
		}()
	}
	for {
		now := time.Now()
		var due []*client
		h.mu.Lock()
		for len(h.events) > 0 && !h.events.peek().After(now) {
			due = append(due, h.events.popEvent().c)
		}
		var next time.Duration = 50 * time.Millisecond
		if len(h.events) > 0 {
			next = min(next, time.Until(h.events.peek()))
		}
		live := h.live
		h.mu.Unlock()
		for _, c := range due {
			work <- c
		}
		if live == 0 || now.After(h.hardStop) {
			break
		}
		if next > 0 {
			select {
			case <-h.wake:
			case <-time.After(next):
			}
		}
	}
	close(work)
	wg.Wait()
}

// schedule re-enqueues a client.
func (h *harness) schedule(c *client, at time.Time) {
	h.mu.Lock()
	h.events.pushEvent(event{at: at, c: c})
	h.mu.Unlock()
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// done retires a client from the simulation (churn leave, deadline, or
// hard-stop).
func (h *harness) done(c *client) {
	h.mu.Lock()
	h.live--
	h.mu.Unlock()
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// step advances one client's state machine by a single HTTP interaction.
func (h *harness) step(c *client) {
	now := time.Now()
	if now.After(h.hardStop) {
		h.done(c)
		return
	}
	switch c.state {
	case stSubmit:
		if now.After(h.deadline) {
			h.done(c)
			return
		}
		h.submit(c)
	case stPoll:
		h.poll(c)
	}
}

// submit POSTs one run. Seeds are drawn from a small set shared across
// tenants, so the crowd deliberately re-explores duplicate configurations —
// the workload cross-run coalescing exists for.
func (h *harness) submit(c *client) {
	seed := int64(c.rng.Intn(h.cfg.RunSeeds)) + 1
	body := fmt.Sprintf(
		`{"problem":%q,"seed":%d,"random_samples":12,"max_iterations":1,"max_batch":8,"pool_cap":2000,"trees":4,"tenant":"tenant-%d","priority":%d}`,
		h.cfg.Problem, seed, c.tenant, c.rng.Intn(3))
	t0 := time.Now()
	resp, err := h.hc.Post(h.base+"/runs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		h.httpErrors.Add(1)
		h.schedule(c, time.Now().Add(500*time.Millisecond))
		return
	}
	lat := time.Since(t0)
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusCreated:
		h.recordPost(lat)
		var st struct {
			ID string `json:"id"`
		}
		if json.NewDecoder(resp.Body).Decode(&st) != nil || st.ID == "" {
			h.httpErrors.Add(1)
			h.schedule(c, time.Now().Add(h.think(c)))
			return
		}
		h.submitted.Add(1)
		c.runID = st.ID
		c.state = stPoll
		h.schedule(c, time.Now().Add(h.pollDelay(c)))
	case http.StatusTooManyRequests:
		// Backpressure: honor Retry-After with jitter, like a well-behaved
		// crowd client.
		h.rejected429.Add(1)
		retry := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			retry = time.Duration(s) * time.Second
		}
		jitter := time.Duration(c.rng.Float64() * float64(retry))
		h.schedule(c, time.Now().Add(retry/2+jitter))
	case http.StatusServiceUnavailable:
		h.done(c) // daemon shutting down
	default:
		h.httpErrors.Add(1)
		h.schedule(c, time.Now().Add(h.think(c)))
	}
}

// poll checks the client's run, churns (cancel mid-run), and on completion
// either leaves or thinks and resubmits.
func (h *harness) poll(c *client) {
	resp, err := h.hc.Get(h.base + "/runs/" + c.runID)
	if err != nil {
		h.httpErrors.Add(1)
		h.schedule(c, time.Now().Add(500*time.Millisecond))
		return
	}
	var st struct {
		State string `json:"state"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		// Evicted between polls. Eviction only ever takes terminal
		// sessions, so the run finished; count it.
		h.finishRun(c, "done")
	case resp.StatusCode != http.StatusOK || decErr != nil:
		h.httpErrors.Add(1)
		h.schedule(c, time.Now().Add(500*time.Millisecond))
	case st.State == "done" || st.State == "cancelled" || st.State == "failed":
		h.finishRun(c, st.State)
	case c.rng.Float64() < 0.02:
		// Churn: this client abandons the run mid-flight.
		req, _ := http.NewRequest(http.MethodDelete, h.base+"/runs/"+c.runID, nil)
		if resp, err := h.hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
		h.cancelled.Add(1)
		h.afterRun(c)
	default:
		h.schedule(c, time.Now().Add(h.pollDelay(c)))
	}
}

// finishRun accounts a terminal run and moves the client on.
func (h *harness) finishRun(c *client, state string) {
	if state == "cancelled" {
		h.cancelled.Add(1)
	} else {
		h.completed.Add(1)
		h.byTenant[c.tenant].Add(1)
	}
	h.afterRun(c)
}

// afterRun is the churn decision after a run ends: leave the crowd, or
// think and come back for another run.
func (h *harness) afterRun(c *client) {
	c.runID = ""
	c.state = stSubmit
	if c.rng.Float64() < 0.25 {
		h.done(c) // leave
		return
	}
	h.schedule(c, time.Now().Add(h.think(c)))
}

// think draws a heavy-tailed (lognormal) think time, scaled by the
// client's device speed and its tenant's aggression: tenant-0 thinks ~9×
// faster than tenant-2, which is the skewed offered load the fair-share
// assertions run against.
func (h *harness) think(c *client) time.Duration {
	skew := math.Pow(3, float64(c.tenant%3))
	speed := min(max(c.speed, 0.4), 4)
	d := float64(h.cfg.thinkBase()) * skew * speed * math.Exp(c.rng.NormFloat64()*0.75)
	return time.Duration(d)
}

// pollDelay draws the client's next status-poll latency (network + device),
// heavy-tailed around tens of milliseconds.
func (h *harness) pollDelay(c *client) time.Duration {
	speed := min(max(c.speed, 0.4), 4)
	d := 30 * float64(time.Millisecond) * speed * math.Exp(c.rng.NormFloat64()*0.5)
	return max(time.Duration(d), 5*time.Millisecond)
}

func (h *harness) recordPost(d time.Duration) {
	h.latMu.Lock()
	if len(h.postLat) < 1<<20 {
		h.postLat = append(h.postLat, float64(d)/float64(time.Millisecond))
	}
	h.latMu.Unlock()
}

// watchStats polls GET /stats for the run's duration, accumulating the
// quota-violation and queue-depth evidence the assertions need.
func (h *harness) watchStats(done <-chan struct{}) {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			h.pollStats()
		}
	}
}

func (h *harness) pollStats() {
	resp, err := h.hc.Get(h.base + "/stats")
	if err != nil {
		return
	}
	var st server.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if err != nil || st.Sched == nil {
		return
	}
	h.statMu.Lock()
	defer h.statMu.Unlock()
	h.lastStats = st
	if st.Sched.MaxQueueDepth > h.maxQueueDepth {
		h.maxQueueDepth = st.Sched.MaxQueueDepth
	}
	if bound := st.Sched.MaxRunning; bound > 0 && st.Sched.Running > bound {
		h.quotaViolations++
	}
	if h.cfg.TenantMaxRunning > 0 {
		for _, t := range st.Sched.Tenants {
			if t.Running > h.cfg.TenantMaxRunning {
				h.quotaViolations++
			}
		}
	}
}

// quantile returns the q-quantile of xs (sorted in place); 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[int(q*float64(len(xs)-1))]
}

func (h *harness) buildReport(elapsed time.Duration) *report {
	rep := &report{
		Clients:     h.cfg.Clients,
		Completed:   h.completed.Load(),
		Cancelled:   h.cancelled.Load(),
		Rejected429: h.rejected429.Load(),
		HTTPErrors:  h.httpErrors.Load(),
		ByTenant:    make([]int64, h.cfg.Tenants),
		Elapsed:     elapsed,
		PeakRSSMB:   peakRSSMB(),
	}
	for i := range h.byTenant {
		rep.ByTenant[i] = h.byTenant[i].Load()
	}
	h.latMu.Lock()
	rep.PostP50MS = quantile(h.postLat, 0.50)
	rep.PostP99MS = quantile(h.postLat, 0.99)
	h.latMu.Unlock()

	h.statMu.Lock()
	st := h.lastStats
	rep.MaxQueueDepth = h.maxQueueDepth
	rep.QuotaViolations = h.quotaViolations
	h.statMu.Unlock()
	rep.WaitP50MS = st.Sched.WaitP50MS
	rep.WaitP99MS = st.Sched.WaitP99MS
	rep.MaxQueueDepth = max(rep.MaxQueueDepth, st.Sched.MaxQueueDepth)
	rep.CacheHits = st.CacheHits
	rep.CacheMisses = st.CacheMisses
	rep.CoalesceHits = st.CacheCoalesceHits
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		rep.CoalesceRate = float64(rep.CoalesceHits) / float64(lookups)
	}

	// Assertions.
	if rep.Completed == 0 {
		rep.Failures = append(rep.Failures, "no run completed at all")
	}
	for i, n := range rep.ByTenant {
		if n == 0 {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("starvation: tenant-%d completed no runs", i))
		}
	}
	if rep.QuotaViolations > 0 {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("quota enforcement: %d polled /stats snapshots exceeded a concurrency bound", rep.QuotaViolations))
	}
	if h.cfg.P99BoundMS > 0 && rep.WaitP99MS > h.cfg.P99BoundMS {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("admission p99 %.1fms exceeds bound %.1fms", rep.WaitP99MS, h.cfg.P99BoundMS))
	}
	if h.cfg.RSSBoundMB > 0 && rep.PeakRSSMB > h.cfg.RSSBoundMB {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("peak RSS %.1fMiB exceeds bound %.1fMiB", rep.PeakRSSMB, h.cfg.RSSBoundMB))
	}
	if h.cfg.RequireCoalesce && rep.CoalesceHits == 0 {
		rep.Failures = append(rep.Failures,
			"coalescing: duplicate-seed tenants produced zero memo-cache singleflight waits")
	}
	return rep
}

// printReport emits the "LOAD:"-prefixed summary CI greps into the job
// summary, plus any assertion failures.
func (h *harness) printReport(rep *report) {
	tenants := make([]string, len(rep.ByTenant))
	for i, n := range rep.ByTenant {
		tenants[i] = fmt.Sprintf("tenant-%d=%d", i, n)
	}
	fmt.Fprintf(h.out, "LOAD: clients=%d tenants=%d elapsed=%.1fs completed=%d cancelled=%d rejected_429=%d http_errors=%d\n",
		rep.Clients, len(rep.ByTenant), rep.Elapsed.Seconds(), rep.Completed, rep.Cancelled, rep.Rejected429, rep.HTTPErrors)
	fmt.Fprintf(h.out, "LOAD: runs_per_s=%.1f post_p50_ms=%.2f post_p99_ms=%.2f admit_wait_p50_ms=%.2f admit_wait_p99_ms=%.2f\n",
		float64(rep.Completed)/rep.Elapsed.Seconds(), rep.PostP50MS, rep.PostP99MS, rep.WaitP50MS, rep.WaitP99MS)
	fmt.Fprintf(h.out, "LOAD: max_queue_depth=%d quota_violations=%d peak_rss_mb=%.1f coalesce_hits=%d coalesce_rate=%.4f cache_hits=%d cache_misses=%d\n",
		rep.MaxQueueDepth, rep.QuotaViolations, rep.PeakRSSMB, rep.CoalesceHits, rep.CoalesceRate, rep.CacheHits, rep.CacheMisses)
	fmt.Fprintf(h.out, "LOAD: completions by tenant: %s\n", strings.Join(tenants, " "))
	for _, f := range rep.Failures {
		fmt.Fprintf(h.out, "LOAD: FAIL %s\n", f)
	}
	if len(rep.Failures) == 0 {
		fmt.Fprintf(h.out, "LOAD: PASS all assertions held\n")
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux), which disables the
// RSS assertion rather than failing it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
