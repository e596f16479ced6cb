package main

import (
	"cmp"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Layers, outermost first. A span's depth is its layer's position here: the
// benchmark's client calls the server, whose session drives core, whose
// evaluation step calls the worker pool, whose workers call the evaluator.
var layers = []string{"bench", "server", "core", "worker", "evaluator"}

func depth(layer string) int { return slices.Index(layers, layer) }

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers. Run is 0 when the call cannot be tied to one run from outside
// (a pool request under two concurrent runs); Parent is 0 for a root or when
// the cause is only known by containment. Worker and Bytes are set on worker
// spans only.
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Run     int64  `json:"run"`
	Parent  int64  `json:"parent"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Worker  int    `json:"worker,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

func (s span) seconds() float64 { return float64(s.EndUS-s.StartUS) / 1e6 }

// tracer keeps spans in memory until the workload ends. A nil tracer is
// tracing switched off: every method is a no-op, so call sites need no
// branch.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// soleRun is the run in flight while a workload has a single client, so
	// that spans recorded below the HTTP boundary can carry its id.
	soleRun atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) setSoleRun(run int64) {
	if t != nil {
		t.soleRun.Store(run)
	}
}

func (t *tracer) us(at time.Time) int64 { return at.Sub(t.epoch).Microseconds() }

// add records a finished span. A zero id asks for a fresh one; a zero run on
// a span below the HTTP boundary takes the sole run in flight, if any.
func (t *tracer) add(s span, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	if s.Run == 0 && depth(s.Layer) >= depth("worker") {
		s.Run = t.soleRun.Load()
	}
	s.StartUS, s.EndUS = t.us(start), t.us(end)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// discard drops what has been recorded so far: set-up and its warm-up run
// are not part of what a traced pass measures.
func (t *tracer) discard() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// iteration is one engine iteration as the benchmark saw it: when its
// statistics arrived, and how long the engine says each phase took.
type iteration struct {
	at                         time.Time
	fit, encode, predict, eval time.Duration
}

// phases records the phases of one run's iterations as core spans. The
// engine reports durations, not timestamps, so each iteration's phases are
// laid back to back and placed as late as two facts allow: an iteration had
// ended when its statistics arrived, and before the next one began. Placing
// each by its arrival alone would overlap iterations whenever the reader of
// the event stream was late.
func (t *tracer) phases(run, parent int64, its []iteration) {
	if t == nil {
		return
	}
	var next time.Time // start of the iteration after this one
	for i := len(its) - 1; i >= 0; i-- {
		it := its[i]
		end := it.at
		if !next.IsZero() && next.Before(end) {
			end = next
		}
		for _, p := range []struct {
			name string
			d    time.Duration
		}{{"eval", it.eval}, {"predict", it.predict}, {"encode", it.encode}, {"fit", it.fit}} {
			if p.d > 0 {
				t.add(span{Name: p.name, Layer: "core", Run: run, Parent: parent}, end.Add(-p.d), end)
			}
			end = end.Add(-p.d)
		}
		next = end
	}
}

// Span names the per-layer metrics pick out.
const (
	poolRequestSpan = "pool request"
	eventsRoute     = "GET /runs/{id}/events"
)

// Headers by which the benchmark's client tells its own handler wrapper
// which run and span caused a request. The program under test never reads
// them.
const (
	hdrRun    = "X-Bench-Run"
	hdrSpan   = "X-Bench-Span"
	hdrParent = "X-Bench-Parent"
)

func hdrInt(h http.Header, key string) int64 {
	n, _ := strconv.ParseInt(h.Get(key), 10, 64)
	return n
}

// traceHandler records one span per request around a layer's HTTP entry
// point. worker is the worker's index, or -1 for the daemon.
func traceHandler(t *tracer, layer string, worker int, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(span{
			ID:     hdrInt(r.Header, hdrSpan),
			Name:   r.Method + " " + routeOf(r.URL.Path),
			Layer:  layer,
			Run:    hdrInt(r.Header, hdrRun),
			Parent: hdrInt(r.Header, hdrParent),
			Worker: worker + 1,
		}, start, time.Now())
	})
}

// routeOf replaces the run id in a daemon path, so spans group by route.
func routeOf(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) >= 3 && parts[1] == "runs" {
		parts[2] = "{id}"
	}
	return strings.Join(parts, "/")
}

// traceTransport records one worker span per pool request, from the request
// leaving the pool to the response body being closed, and tells the worker's
// handler wrapper which span caused it.
type traceTransport struct {
	t       *tracer
	next    http.RoundTripper
	workers map[string]int // host:port → worker index
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/evaluate") {
		return tt.next.RoundTrip(req)
	}
	s := span{ID: tt.t.newID(), Name: poolRequestSpan, Layer: "worker",
		Worker: tt.workers[req.URL.Host] + 1, Bytes: req.ContentLength}
	req = req.Clone(req.Context())
	req.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
	start := time.Now()
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		tt.t.add(s, start, time.Now())
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, done: func(n int64) {
		s.Bytes += n
		tt.t.add(s, start, time.Now())
	}}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// blockingSelf splits a root span's wall time among the layers: each instant
// goes to the deepest layer that has a span open then. Parallel spans of one
// layer therefore count once, which is what the caller of a fan-out waits
// for, and the shares add up to the root's duration exactly. Spans are
// clipped to the root.
func blockingSelf(root span, spans []span) map[string]float64 {
	type edge struct {
		at    int64
		depth int
		delta int
	}
	var edges []edge
	for _, s := range spans {
		lo, hi := max(s.StartUS, root.StartUS), min(s.EndUS, root.EndUS)
		if d := depth(s.Layer); d >= 0 && hi > lo {
			edges = append(edges, edge{lo, d, 1}, edge{hi, d, -1})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
	open := make([]int, len(layers))
	self := make(map[string]float64, len(layers))
	at := root.StartUS
	credit := func(until int64) {
		d := depth(root.Layer)
		for i := len(open) - 1; i > d; i-- {
			if open[i] > 0 {
				d = i
				break
			}
		}
		self[layers[d]] += float64(until-at) / 1e6
		at = until
	}
	for _, e := range edges {
		credit(e.at)
		open[e.depth] += e.delta
	}
	credit(root.EndUS)
	return self
}

// selfByLayer sums blockingSelf over every run of a workload. A run's spans
// are those that carry its id, plus, for spans no single run owns, the parts
// that fall inside the run's own evaluation phases.
func selfByLayer(spans []span) (self map[string]float64, wall float64) {
	byRun := map[int64][]span{}
	var shared []span
	for _, s := range spans {
		if s.Run == 0 {
			shared = append(shared, s)
		} else {
			byRun[s.Run] = append(byRun[s.Run], s)
		}
	}
	self = map[string]float64{}
	for _, own := range byRun {
		ri := slices.IndexFunc(own, func(s span) bool { return s.Layer == "bench" })
		if ri < 0 {
			continue
		}
		set := own
		for _, ph := range own {
			if ph.Layer != "core" || ph.Name != "eval" {
				continue
			}
			for _, s := range shared {
				if lo, hi := max(s.StartUS, ph.StartUS), min(s.EndUS, ph.EndUS); hi > lo {
					s.StartUS, s.EndUS = lo, hi
					set = append(set, s)
				}
			}
		}
		for layer, sec := range blockingSelf(own[ri], set) {
			self[layer] += sec
		}
		wall += own[ri].seconds()
	}
	return self, wall
}

// writeChromeTrace writes spans as Chrome trace-event JSON (complete "X"
// events), which Perfetto and chrome://tracing open. Each layer gets its own
// block of thread lanes; within a layer, spans that overlap go to different
// lanes, because a lane may only hold nested or disjoint slices.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	spans = slices.Clone(spans)
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.StartUS, b.StartUS) })
	events := make([]event, 0, len(spans)+16)
	laneEnd := map[int][]int64{} // layer depth → end of the last span in each lane
	for _, s := range spans {
		d := depth(s.Layer)
		lane := slices.IndexFunc(laneEnd[d], func(end int64) bool { return end <= s.StartUS })
		if lane < 0 {
			lane = len(laneEnd[d])
			laneEnd[d] = append(laneEnd[d], 0)
			events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: d*1000 + lane,
				Args: map[string]any{"name": s.Layer + " " + strconv.Itoa(lane)}})
		}
		laneEnd[d][lane] = s.EndUS
		events = append(events, event{Name: s.Name, Cat: s.Layer, Ph: "X", TS: s.StartUS,
			Dur: max(s.EndUS-s.StartUS, 1), PID: 1, TID: d*1000 + lane,
			Args: map[string]any{"id": s.ID, "run": s.Run, "parent": s.Parent, "worker": s.Worker, "bytes": s.Bytes}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
