package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/param"
	"repro/internal/server"
	"repro/internal/worker"
)

// meter wraps an evaluator from outside: it counts calls and busy time, and,
// when slots is set, models a device that measures at most cap(slots)
// configurations at a time and takes delay for each. worker.Server bounds
// evaluator calls per request, not per worker, so device capacity has to be
// modelled here.
type meter struct {
	inner  core.Evaluator
	slots  chan struct{}
	delay  time.Duration
	t      *tracer
	worker int // index + 1; 0 for an in-process evaluator

	calls  atomic.Int64
	busyNS atomic.Int64
}

func (m *meter) Evaluate(cfg param.Config) []float64 {
	if m.slots != nil {
		m.slots <- struct{}{}
		defer func() { <-m.slots }()
	}
	start := time.Now()
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	out := m.inner.Evaluate(cfg)
	end := time.Now()
	m.calls.Add(1)
	m.busyNS.Add(int64(end.Sub(start)))
	m.t.add(span{Name: "evaluate", Layer: "evaluator", Worker: m.worker}, start, end)
	return out
}

// loopback serves a handler on a port the kernel picks on 127.0.0.1.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return l, nil
}

func (l *loopback) close() {
	_ = l.srv.Close() // drops idle and active connections; nothing is in flight by now
	<-l.done
}

// fleet is a worker.Pool over n worker.Servers on loopback, each with its
// own metered copy of the problem's evaluator.
type fleet struct {
	pool    *worker.Pool
	servers []*loopback
	meters  []*meter
}

// startFleet starts n workers serving p. slots and delay configure each
// worker's simulated device (0 slots: the evaluator runs unthrottled).
func startFleet(n int, p catalog.Problem, slots int, delay time.Duration, t *tracer) (*fleet, error) {
	f := &fleet{}
	urls := make([]string, n)
	hosts := make(map[string]int, n)
	for i := range n {
		m := &meter{inner: p.Eval, delay: delay, t: t, worker: i + 1}
		if slots > 0 {
			m.slots = make(chan struct{}, slots)
		}
		ws := worker.NewServer(0)
		if err := ws.Register(worker.Problem{Name: p.Name, Space: p.Space, Eval: m, Objectives: len(p.Objectives)}); err != nil {
			f.close()
			return nil, err
		}
		l, err := serveLoopback(traceHandler(t, "worker", i, ws.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, l)
		f.meters = append(f.meters, m)
		urls[i] = l.url
		hosts[l.url[len("http://"):]] = i
	}
	var opts worker.Options // the defaults are what is being measured
	if t != nil {
		opts.Client = &http.Client{Transport: &traceTransport{t: t, next: http.DefaultTransport, workers: hosts}}
	}
	pool, err := worker.NewPool(urls, opts)
	if err != nil {
		f.close()
		return nil, err
	}
	f.pool = pool
	return f, nil
}

func (f *fleet) close() {
	if f.pool != nil {
		f.pool.Close()
	}
	for _, l := range f.servers {
		l.close()
	}
	// The pool's requests went through the shared default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func (f *fleet) evaluatorCalls() (calls int64, busy time.Duration) {
	for _, m := range f.meters {
		calls += m.calls.Load()
		busy += time.Duration(m.busyNS.Load())
	}
	return calls, busy
}

// daemon is a server.Manager behind its HTTP handler on loopback.
type daemon struct {
	mgr *server.Manager
	l   *loopback
	hc  *http.Client
	t   *tracer
}

func startDaemon(cfg server.Config, p catalog.Problem, t *tracer) (*daemon, error) {
	mgr := server.NewManagerConfig(cfg, serverProblem(p))
	l, err := serveLoopback(traceHandler(t, "server", -1, mgr.Handler()))
	if err != nil {
		shutdownManager(mgr)
		return nil, err
	}
	return &daemon{mgr: mgr, l: l, t: t, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}, nil
}

func serverProblem(p catalog.Problem) server.Problem {
	return server.Problem{Name: p.Name, Description: p.Description, Space: p.Space, Eval: p.Eval, Objectives: p.Objectives}
}

func shutdownManager(mgr *server.Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = mgr.Shutdown(ctx) // only a hung run can fail this, and the child exits next
}

func (d *daemon) close() {
	shutdownManager(d.mgr)
	d.hc.CloseIdleConnections()
	d.l.close()
}

// runSample is what the benchmark keeps of one run.
type runSample struct {
	Seed    int64
	Wall    float64 // submit → front bytes in hand, seconds
	Front   []byte
	Samples int // configurations in the result
	// Engine phase seconds, bootstrap included.
	Fit, Encode, Predict, Eval float64
	CacheHits, CacheMisses     int

	// Daemon shapes only, seconds.
	Post, FirstEvent, DoneToFront float64
	StatusBytes                   int
	Err                           string // why the run counts as failed
}

func (s *runSample) addPhases(it iteration) {
	s.Fit += it.fit.Seconds()
	s.Encode += it.encode.Seconds()
	s.Predict += it.predict.Seconds()
	s.Eval += it.eval.Seconds()
}

// do issues one request of a run. When tracing, the handler wrapper learns
// the run and the span that caused it from headers.
func (d *daemon) do(method, path string, body []byte, run, spanID, parent int64) (*http.Response, error) {
	req, err := http.NewRequest(method, d.l.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if d.t != nil {
		req.Header.Set(hdrRun, strconv.FormatInt(run, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(spanID, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(parent, 10))
	}
	return d.hc.Do(req)
}

func (d *daemon) fetch(method, path string, body []byte, want int, run, parent int64) ([]byte, error) {
	resp, err := d.do(method, path, body, run, d.t.newID(), parent)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// run drives one exploration the way a client does: POST /runs, read
// /events to EOF, GET /front. The clock stops when the front's bytes are in
// hand; the status check after that is the benchmark's, not the client's.
func (d *daemon) run(req server.RunRequest, run int64) runSample {
	s := runSample{Seed: req.Seed}
	root := d.t.newID()
	body, _ := json.Marshal(req) // a struct of scalars cannot fail to marshal
	start := time.Now()
	fail := func(err error) runSample {
		s.Wall = time.Since(start).Seconds()
		s.Err = err.Error()
		return s
	}
	data, err := d.fetch("POST", "/runs", body, http.StatusCreated, run, root)
	if err != nil {
		return fail(err)
	}
	posted := time.Now()
	var st server.RunStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fail(fmt.Errorf("POST /runs: %w", err))
	}
	events, done, err := d.streamEvents(st.ID, run, root, &s, start)
	if err != nil {
		return fail(err)
	}
	s.Front, err = d.fetch("GET", "/runs/"+st.ID+"/front", nil, http.StatusOK, run, root)
	end := time.Now()
	if err != nil {
		return fail(err)
	}
	d.t.add(span{ID: root, Name: "run", Layer: "bench", Run: run}, start, end)
	s.Wall = end.Sub(start).Seconds()
	s.Post = posted.Sub(start).Seconds()
	s.DoneToFront = end.Sub(done).Seconds()

	data, err = d.fetch("GET", "/runs/"+st.ID, nil, http.StatusOK, run, 0)
	if err != nil {
		return fail(err)
	}
	s.StatusBytes = len(data)
	if err := json.Unmarshal(data, &st); err != nil {
		return fail(fmt.Errorf("GET /runs/%s: %w", st.ID, err))
	}
	s.Samples, s.CacheHits, s.CacheMisses = st.Samples, st.CacheHits, st.CacheMisses
	switch {
	case st.State != server.StateDone:
		s.Err = fmt.Sprintf("run %s ended %s: %s", st.ID, st.State, st.Error)
	case events != len(st.Iterations):
		s.Err = fmt.Sprintf("run %s streamed %d events, status lists %d", st.ID, events, len(st.Iterations))
	}
	return s
}

// streamEvents reads a run's NDJSON progress stream to EOF, which the daemon
// sends when the run is terminal. The phase timings of every event,
// bootstrap included, come from here.
func (d *daemon) streamEvents(id string, run, root int64, s *runSample, start time.Time) (events int, done time.Time, err error) {
	streamSpan := d.t.newID()
	resp, err := d.do("GET", "/runs/"+id+"/events", nil, run, streamSpan, root)
	if err != nil {
		return 0, done, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, done, fmt.Errorf("GET /runs/%s/events: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var its []iteration
	for sc.Scan() {
		at := time.Now()
		var ev server.IterationEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return events, done, fmt.Errorf("GET /runs/%s/events: %w", id, err)
		}
		if events == 0 {
			s.FirstEvent = at.Sub(start).Seconds()
		}
		events++
		ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
		it := iteration{at, ms(ev.FitMS), ms(ev.EncodeMS), ms(ev.PredictMS), ms(ev.EvalMS)}
		s.addPhases(it)
		its = append(its, it)
	}
	d.t.phases(run, streamSpan, its)
	return events, time.Now(), sc.Err()
}

// frontJSON renders a result's front exactly as GET /runs/{id}/front does,
// so an in-process run can be compared with a daemon's byte for byte.
func frontJSON(p catalog.Problem, res *core.Result) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(core.NewStoredFront(p.Space, res, p.Name, "", p.Objectives)) // finite floats into memory
	return buf.Bytes()
}

// inprocRun calls core.RunContext directly. opts carries the budgets; the
// evaluator is metered, and phases are recorded from OnIteration because
// Result.Iterations omits the bootstrap.
func inprocRun(p catalog.Problem, eval core.Evaluator, opts core.Options, run int64, t *tracer) (runSample, *core.Result) {
	s := runSample{Seed: opts.Seed}
	root := t.newID()
	var mu sync.Mutex // OnIteration runs on the engine's goroutine; the lock only orders it with the read below
	var its []iteration
	opts.OnIteration = func(st core.IterationStats) {
		mu.Lock()
		defer mu.Unlock()
		its = append(its, iteration{time.Now(), st.FitTime, st.EncodeTime, st.PredictTime, st.EvalTime})
		s.addPhases(its[len(its)-1])
	}
	start := time.Now()
	res, err := core.RunContext(context.Background(), p.Space, eval, opts)
	end := time.Now()
	mu.Lock()
	defer mu.Unlock()
	s.Wall = end.Sub(start).Seconds()
	if err != nil {
		s.Err = err.Error()
		return s, nil
	}
	t.add(span{ID: root, Name: "run", Layer: "bench", Run: run}, start, end)
	t.phases(run, root, its)
	s.Front = frontJSON(p, res)
	s.Samples = len(res.Samples)
	s.CacheHits, s.CacheMisses = res.CacheHits, res.CacheMisses
	return s, res
}
