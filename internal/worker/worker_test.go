package worker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/param"
)

// testSpace is a small three-parameter space: big enough for multi-chunk
// batches, small enough that engine-level tests run in milliseconds.
func testSpace(t testing.TB) *param.Space {
	t.Helper()
	return param.MustSpace(
		param.Grid("a", 0, 4, 12),
		param.Grid("b", 0, 4, 12),
		param.Levels("c", 1, 2, 3),
	)
}

// testEval is a deterministic pure-function evaluator shared by the local
// and remote sides of the equivalence tests.
func testEval() core.Evaluator {
	return core.EvaluatorFunc(func(cfg param.Config) []float64 {
		a, b, c := cfg[0], cfg[1], cfg[2]
		return []float64{
			a + 0.5*math.Sin(3*b) + 0.05*c + 1.5,
			b + 0.5*math.Cos(2*a) + 1.5,
		}
	})
}

// newWorker starts one httptest worker daemon with the test problem
// registered, optionally wrapping its handler (to inject failures or
// delays). Callers own the returned server's lifetime.
func newWorker(t testing.TB, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	return newWorkerFor(t, testEval(), wrap)
}

// newServer is a 2-slot worker Server with the test problem registered,
// measured by eval.
func newServer(t testing.TB, eval core.Evaluator) *Server {
	t.Helper()
	s := NewServer(2)
	if err := s.Register(Problem{Name: "test", Space: testSpace(t), Eval: eval, Objectives: 2}); err != nil {
		t.Fatal(err)
	}
	return s
}

// newWorkerFor is newWorker with the test problem measured by eval.
func newWorkerFor(t testing.TB, eval core.Evaluator, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	h := http.Handler(newServer(t, eval).Handler())
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// fingerprint renders a run's samples and fronts into one comparable
// string, mirroring the engine's own equivalence-test fingerprint.
func fingerprint(res *core.Result) string {
	var b strings.Builder
	for _, s := range res.Samples {
		fmt.Fprintf(&b, "s %d %v %v %d\n", s.Index, s.Config, s.Objs, s.Iteration)
	}
	for _, p := range res.Front {
		fmt.Fprintf(&b, "f %d %v\n", p.ID, p.Objs)
	}
	for _, p := range res.RandomFront {
		fmt.Fprintf(&b, "r %d %v\n", p.ID, p.Objs)
	}
	return b.String()
}

func runOpts(seed int64) core.Options {
	return core.Options{
		Objectives:    2,
		RandomSamples: 40,
		MaxIterations: 3,
		MaxBatch:      30,
		Seed:          seed,
	}
}

func TestRemoteMatchesLocalSeededRun(t *testing.T) {
	// The acceptance bar: a seeded run fanned out over ≥ 2 workers must
	// produce a byte-identical sample order and front to the in-process
	// run. ChunkSize 7 forces every batch to shard across the fleet.
	space := testSpace(t)
	local, err := core.Run(space, testEval(), runOpts(23))
	if err != nil {
		t.Fatal(err)
	}

	urls := []string{
		newWorker(t, nil).URL,
		newWorker(t, nil).URL,
		newWorker(t, nil).URL,
	}
	pool, err := NewPool(urls, Options{ChunkSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	opts := runOpts(23)
	opts.Backend = pool.Backend("test", 2)
	remote, err := core.Run(space, nil, opts)
	if err != nil {
		t.Fatal(err)
	}

	if fingerprint(local) != fingerprint(remote) {
		t.Fatal("remote run diverged from the local run with an identical seed")
	}
	if local.Converged != remote.Converged || len(local.Iterations) != len(remote.Iterations) {
		t.Fatalf("run shape diverged: converged %v/%v, iterations %d/%d",
			local.Converged, remote.Converged, len(local.Iterations), len(remote.Iterations))
	}
	// The batches really did spread: every worker saw requests.
	for _, st := range pool.Stats() {
		if st.Requests == 0 {
			t.Fatalf("worker %s received no requests: %+v", st.URL, pool.Stats())
		}
	}
}

func TestKillOneWorkerMidRunRetriesComplete(t *testing.T) {
	// One worker of two dies mid-run (its handler starts refusing after a
	// few batches). Per-chunk retries must reroute to the survivor and the
	// run must complete with results identical to a local run.
	space := testSpace(t)
	local, err := core.Run(space, testEval(), runOpts(7))
	if err != nil {
		t.Fatal(err)
	}

	var served atomic.Int64
	dying := newWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if served.Add(1) > 2 {
				http.Error(w, "worker crashed", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	healthy := newWorker(t, nil)

	pool, err := NewPool([]string{dying.URL, healthy.URL}, Options{
		ChunkSize:    8,
		Retries:      2,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := runOpts(7)
	opts.Backend = pool.Backend("test", 2)
	remote, err := core.Run(space, nil, opts)
	if err != nil {
		t.Fatalf("run over a half-dead pool failed: %v", err)
	}
	if fingerprint(local) != fingerprint(remote) {
		t.Fatal("retried run diverged from the local run")
	}
	stats := pool.Stats()
	if stats[0].Failures == 0 {
		t.Fatalf("dying worker recorded no failures: %+v", stats)
	}
}

func TestAllWorkersDownErrorsCleanlyWithPartialResults(t *testing.T) {
	// The whole fleet dies partway through the bootstrap: retry budgets
	// exhaust, the run surfaces the backend error, and the measurements
	// that completed before the outage are preserved with a front computed
	// over them. The shared counter lets exactly two of the bootstrap's
	// four chunks through, so the partial result is non-empty by
	// construction.
	var served atomic.Int64
	die := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if served.Add(1) > 2 {
				http.Error(w, "fleet outage", http.StatusBadGateway)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	pool, err := NewPool([]string{newWorker(t, die).URL, newWorker(t, die).URL}, Options{
		ChunkSize:    10,
		Retries:      1,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	space := testSpace(t)
	opts := runOpts(11)
	opts.Backend = pool.Backend("test", 2)
	res, err := core.Run(space, nil, opts)
	if err == nil {
		t.Fatal("run over a dead fleet should error")
	}
	if !strings.Contains(err.Error(), "502") {
		t.Fatalf("error does not carry the worker failure: %v", err)
	}
	if res == nil || len(res.Samples) == 0 {
		t.Fatal("partial results from before the outage must be preserved")
	}
	for _, s := range res.Samples {
		if len(s.Objs) != 2 {
			t.Fatalf("retained sample %d has objectives %v", s.Index, s.Objs)
		}
	}
	if len(res.Front) == 0 {
		t.Fatal("partial result should carry a front over completed samples")
	}
}

func TestSlowWorkerHedgingFirstReplyWins(t *testing.T) {
	// One worker stalls every request past the hedge threshold. The
	// hedged second request must win, the batch must complete fast with
	// correct values, and — although the slow leg's response eventually
	// arrives too — every configuration is counted exactly once.
	slowRelease := make(chan struct{})
	slow := newWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-slowRelease:
			case <-r.Context().Done():
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	fast := newWorker(t, nil)
	pool, err := NewPool([]string{slow.URL, fast.URL}, Options{
		ChunkSize:  64,
		HedgeAfter: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(slowRelease)

	space := testSpace(t)
	eval := testEval()
	cfgs := make([]param.Config, 20)
	want := make([][]float64, len(cfgs))
	for i := range cfgs {
		cfgs[i] = space.AtIndex(int64(i * 13))
		want[i] = eval.Evaluate(cfgs[i])
	}
	backend := pool.Backend("test", 2)

	// Run enough batches that round-robin lands the primary on the slow
	// worker at least once; each one must resolve via the hedge.
	for round := 0; round < 2; round++ {
		out, err := backend.EvaluateBatch(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(cfgs) {
			t.Fatalf("round %d: %d results for %d configs", round, len(out), len(cfgs))
		}
		for i := range out {
			if out[i] == nil {
				t.Fatalf("round %d: config %d not evaluated", round, i)
			}
			if out[i][0] != want[i][0] || out[i][1] != want[i][1] {
				t.Fatalf("round %d: config %d objectives %v, want %v", round, i, out[i], want[i])
			}
		}
	}
	hedges := int64(0)
	for _, st := range pool.Stats() {
		hedges += st.Hedges
	}
	if hedges == 0 {
		t.Fatalf("no hedged requests recorded against a stalled worker: %+v", pool.Stats())
	}
}

func TestAdaptiveHedgeRescuesStalledWorker(t *testing.T) {
	// The adaptive hedge (HedgeAfter 0) with no per-request ceiling: once
	// the problem's latency window holds hedgeMinSamples completions, a
	// worker that stalls /evaluate until its request ends must not hang a
	// batch — only a hedge leg armed from that window can finish it.
	var stall atomic.Bool
	stalling := newWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if stall.Load() && r.URL.Path == "/evaluate" {
				_, _ = io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	healthy := newWorker(t, nil)
	pool, err := NewPool([]string{stalling.URL, healthy.URL}, Options{
		ChunkSize:      64,
		requestTimeout: -1, // no ceiling: nothing but the hedge ends a stalled request
	})
	if err != nil {
		t.Fatal(err)
	}

	space := testSpace(t)
	eval := testEval()
	cfgs := make([]param.Config, 20)
	want := make([][]float64, len(cfgs))
	for i := range cfgs {
		cfgs[i] = space.AtIndex(int64(i * 13))
		want[i] = eval.Evaluate(cfgs[i])
	}
	backend := pool.Backend("test", 2)
	batch := func(phase string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		out, err := backend.EvaluateBatch(ctx, cfgs)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		for i := range out {
			if len(out[i]) != 2 || out[i][0] != want[i][0] || out[i][1] != want[i][1] {
				t.Fatalf("%s: config %d objectives %v, want %v", phase, i, out[i], want[i])
			}
		}
	}

	// Warm the window past hedgeMinSamples: one chunk, one completion, per
	// batch.
	for i := 0; i < hedgeMinSamples; i++ {
		batch("warm-up")
	}
	if d := pool.hedgeDelay("test", len(cfgs)); d <= 0 {
		t.Fatalf("hedge still cold after %d completions", hedgeMinSamples)
	}

	// Round-robin parks one of two primaries on the stalling worker.
	stall.Store(true)
	for round := 0; round < 2; round++ {
		batch(fmt.Sprintf("stalled round %d", round))
	}
	var hedges, failures int64
	for _, st := range pool.Stats() {
		hedges += st.Hedges
		failures += st.Failures
	}
	if hedges == 0 || failures != 0 {
		t.Fatalf("%d hedges, %d failures; want > 0 and 0: %+v", hedges, failures, pool.Stats())
	}
}

func TestCancellationPropagatesToInFlightRemoteEvaluations(t *testing.T) {
	// Cancelling the engine context must abort in-flight worker requests:
	// the run returns promptly with context.Canceled, and the worker stops
	// starting evaluations once its request context dies.
	started := make(chan struct{}, 1024)
	blocked := make(chan struct{})
	var once sync.Once
	slowEval := core.EvaluatorFunc(func(cfg param.Config) []float64 {
		select {
		case started <- struct{}{}:
		default:
		}
		once.Do(func() { close(blocked) })
		time.Sleep(5 * time.Millisecond)
		return testEval().Evaluate(cfg)
	})
	s := NewServer(2)
	if err := s.Register(Problem{Name: "test", Space: testSpace(t), Eval: slowEval, Objectives: 2}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	pool, err := NewPool([]string{srv.URL}, Options{ChunkSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-blocked // the worker is mid-batch
		cancel()
	}()
	opts := runOpts(3)
	opts.Backend = pool.Backend("test", 2)
	start := time.Now()
	res, err := core.RunContext(ctx, testSpace(t), nil, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run should return its (possibly empty) partial result")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The worker's evaluation loop checks its request context before each
	// configuration: once the client went away, it must wind down far
	// short of the full bootstrap batch.
	time.Sleep(50 * time.Millisecond)
	if n := len(started); n >= 40 {
		t.Fatalf("worker evaluated %d configurations after cancellation", n)
	}
}

func TestUnknownProblemFailsFastWithoutRetries(t *testing.T) {
	// A 4xx rejection is definitive for the whole fleet: the chunk must
	// fail on the first reply instead of burning its retry budget (and
	// hedge legs) against workers that can only ever answer 404.
	var served atomic.Int64
	count := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			served.Add(1)
			next.ServeHTTP(w, r)
		})
	}
	pool, err := NewPool([]string{newWorker(t, count).URL, newWorker(t, count).URL}, Options{
		ChunkSize:    64,
		Retries:      3,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []param.Config{testSpace(t).AtIndex(0)}
	_, err = pool.Backend("not-registered", 2).EvaluateBatch(context.Background(), cfgs)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("err = %v, want a 404 rejection", err)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("fleet served %d requests for a permanent rejection, want 1", n)
	}
}

func TestRequestTimeoutUnwedgesWorker(t *testing.T) {
	// A wedged worker — accepts the request, never answers — must not
	// hang the batch while hedging is still cold: requestTimeout fails
	// the attempt and the retry lands on the healthy worker.
	wedged := newWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Consume the body like a real worker: the server only
			// detects the client's timeout-disconnect (and cancels this
			// context) once the request has been read.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
		})
	})
	healthy := newWorker(t, nil)
	pool, err := NewPool([]string{wedged.URL, healthy.URL}, Options{
		ChunkSize:      64,
		Retries:        2,
		RetryBackoff:   time.Millisecond,
		requestTimeout: 50 * time.Millisecond,
		HedgeAfter:     -1, // force the timeout path, not the hedge path
	})
	if err != nil {
		t.Fatal(err)
	}
	space := testSpace(t)
	cfgs := []param.Config{space.AtIndex(1), space.AtIndex(2)}
	start := time.Now()
	// Two rounds so round-robin parks a primary on the wedged worker at
	// least once.
	for round := 0; round < 2; round++ {
		out, err := pool.Backend("test", 2).EvaluateBatch(context.Background(), cfgs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range out {
			if out[i] == nil {
				t.Fatalf("round %d: config %d not evaluated", round, i)
			}
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wedged worker stalled the batch for %v", elapsed)
	}
}

func TestRetriesReachHealthyWorkerPastDeadAndWedged(t *testing.T) {
	// One dead worker, one wedged worker, one healthy worker: the retry
	// loop must route around *every* worker that failed this chunk
	// (not just the last primary) so the healthy worker is reached within
	// the default-sized budget no matter where round-robin starts.
	dead := newWorker(t, nil)
	dead.Close() // connection refused from the start
	wedged := newWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
		})
	})
	healthy := newWorker(t, nil)
	pool, err := NewPool([]string{dead.URL, wedged.URL, healthy.URL}, Options{
		ChunkSize:      64,
		Retries:        2, // exactly enough attempts for dead → wedged → healthy
		RetryBackoff:   time.Millisecond,
		requestTimeout: 100 * time.Millisecond,
		HedgeAfter:     -1, // isolate the retry routing from hedging
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []param.Config{testSpace(t).AtIndex(3)}
	for round := 0; round < 3; round++ {
		out, err := pool.Backend("test", 2).EvaluateBatch(context.Background(), cfgs)
		if err != nil {
			t.Fatalf("round %d: healthy worker never reached: %v", round, err)
		}
		if out[0] == nil {
			t.Fatalf("round %d: config not evaluated", round)
		}
	}
}

func TestObjectiveCountMismatchRejected(t *testing.T) {
	// Coordinator and workers disagree about the problem's objective count
	// (e.g. -power on one side only): the pool must reject the responses
	// before they reach the engine or the shared memo-cache, failing the
	// run with a descriptive error instead of corrupting results.
	pool, err := NewPool([]string{newWorker(t, nil).URL}, Options{ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	space := testSpace(t)
	opts := core.Options{
		Objectives:    3, // the worker's "test" problem returns 2
		RandomSamples: 20,
		MaxIterations: 1,
		Seed:          1,
		Cache:         core.NewEvalCache(),
		Backend:       pool.Backend("test", 3),
	}
	res, err := core.Run(space, nil, opts)
	if err == nil {
		t.Fatal("objective-count mismatch should fail the run")
	}
	if !strings.Contains(err.Error(), "catalog mismatch") {
		t.Fatalf("error does not explain the mismatch: %v", err)
	}
	if res != nil && len(res.Samples) != 0 {
		t.Fatalf("mismatched vectors leaked into results: %d samples", len(res.Samples))
	}
}

func TestWorkerProtocolErrors(t *testing.T) {
	srv := newWorker(t, nil)
	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp, e.Error
	}

	if resp, msg := post(`{"problem":"nope","configs":[[0,0,1]]}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown problem: status %d, msg %q", resp.StatusCode, msg)
	}
	if resp, _ := post(`{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	if resp, msg := post(`{"problem":"test","configs":[[0,0]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong dimension: status %d, msg %q", resp.StatusCode, msg)
	} else if !strings.Contains(msg, "config 0") {
		t.Fatalf("error should locate the bad config: %q", msg)
	}
	if resp, _ := post(`{"problem":"test","configs":[[0.123,0,1]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inadmissible value: status %d", resp.StatusCode)
	}

	// Empty batch is a valid no-op.
	resp, err := http.Post(srv.URL+"/evaluate", "application/json", strings.NewReader(`{"problem":"test","configs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
	var out EvaluateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Objectives == nil || len(out.Objectives) != 0 {
		t.Fatalf("empty batch objectives = %v, want []", out.Objectives)
	}
}

func TestWorkerHealthAndProblems(t *testing.T) {
	srv := newWorker(t, nil)

	var h Health
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || len(h.Problems) != 1 || h.Problems[0] != "test" {
		t.Fatalf("health = %+v", h)
	}

	var probs []ProblemInfo
	resp, err = http.Get(srv.URL + "/problems")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&probs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(probs) != 1 || probs[0].Name != "test" || probs[0].Objectives != 2 {
		t.Fatalf("problems = %+v", probs)
	}
	if probs[0].SpaceSize != testSpace(t).Size() {
		t.Fatalf("space size = %d", probs[0].SpaceSize)
	}

	// Evaluations counter advances with served batches.
	body, _ := json.Marshal(EvaluateRequest{Problem: "test", Configs: []param.Config{testSpace(t).AtIndex(0)}})
	resp, err = http.Post(srv.URL+"/evaluate", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Evaluations != 1 {
		t.Fatalf("evaluations = %d, want 1", h.Evaluations)
	}
}

func TestRegisterValidation(t *testing.T) {
	s := NewServer(0)
	if err := s.Register(Problem{}); err == nil {
		t.Fatal("empty problem should not register")
	}
	if err := s.Register(Problem{Name: "x"}); err == nil {
		t.Fatal("problem without space/eval should not register")
	}
}

func TestWorkerSpecRegistration(t *testing.T) {
	s := NewServer(1)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	// Without a loader the endpoint is explicitly unimplemented.
	resp, err := http.Post(srv.URL+"/problems", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("POST /problems without loader = %d, want 501", resp.StatusCode)
	}

	s.SetSpecLoader(func(data []byte) (Problem, error) {
		var doc struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || doc.Name == "" {
			return Problem{}, fmt.Errorf("bad spec")
		}
		return Problem{Name: doc.Name, Space: testSpace(t), Eval: testEval(), Objectives: 2}, nil
	})

	resp, err = http.Post(srv.URL+"/problems", "application/json", strings.NewReader(`{"name":""}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/problems", "application/json", strings.NewReader(`{"name":"runtime-prob"}`))
	if err != nil {
		t.Fatal(err)
	}
	var info ProblemInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("good spec = %d, want 201", resp.StatusCode)
	}
	if info.Name != "runtime-prob" || len(info.Parameters) != 3 || info.Parameters[0].Kind != "real" {
		t.Fatalf("registration reply = %+v", info)
	}

	// The problem is immediately evaluable.
	body, _ := json.Marshal(EvaluateRequest{Problem: "runtime-prob", Configs: []param.Config{testSpace(t).AtIndex(7)}})
	resp, err = http.Post(srv.URL+"/evaluate", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var out EvaluateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Objectives) != 1 || len(out.Objectives[0]) != 2 {
		t.Fatalf("evaluate after registration = %+v", out)
	}
}
