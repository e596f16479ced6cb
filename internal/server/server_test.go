package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/param"
)

func testProblem(name string, delay time.Duration) Problem {
	space := param.MustSpace(
		param.Grid("a", 0, 4, 40),
		param.Grid("b", 0, 4, 40),
	)
	eval := core.EvaluatorFunc(func(cfg param.Config) []float64 {
		if delay > 0 {
			time.Sleep(delay)
		}
		a, b := cfg[0], cfg[1]
		return []float64{a + 0.5*math.Sin(3*b) + 1.5, b + 0.5*math.Cos(2*a) + 1.5}
	})
	return Problem{
		Name:       name,
		Space:      space,
		Eval:       eval,
		Objectives: []string{"f0", "f1"},
	}
}

func newTestServer(t *testing.T, problems ...Problem) (*Manager, *httptest.Server) {
	t.Helper()
	return newTestServerConfig(t, Config{}, problems...)
}

func postRun(t *testing.T, ts *httptest.Server, req RunRequest) RunStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /runs = %d", resp.StatusCode)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("created run has no id")
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) RunStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/%s = %d", id, resp.StatusCode)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) RunStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s did not reach a terminal state", id)
	return RunStatus{}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, testProblem("toy", 0))

	st := postRun(t, ts, RunRequest{
		Problem: "toy", Seed: 1, RandomSamples: 30, MaxIterations: 2, MaxBatch: 20,
	})
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	}
	if final.Samples < 30 || final.FrontSize == 0 {
		t.Fatalf("final status: %+v", final)
	}
	// Progress must include the bootstrap plus at least one AL round.
	if len(final.Iterations) < 2 || final.Iterations[0].Iteration != 0 {
		t.Fatalf("iterations = %+v", final.Iterations)
	}

	// The front endpoint returns a stored front that validates against
	// the problem's space.
	resp, err := http.Get(ts.URL + "/runs/" + st.ID + "/front")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET front = %d", resp.StatusCode)
	}
	sf, err := core.ReadFront(resp.Body, testProblem("toy", 0).Space)
	if err != nil {
		t.Fatal(err)
	}
	if len(sf.Points) != final.FrontSize {
		t.Fatalf("front has %d points, status says %d", len(sf.Points), final.FrontSize)
	}
}

func TestEightConcurrentSessionsEndToEnd(t *testing.T) {
	// The acceptance bar: ≥ 8 concurrent DSE sessions, each driven through
	// create → poll progress → fetch front → cancel.
	mgr, ts := newTestServer(t, testProblem("toy", 0))

	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("session %d: "+format, append([]any{i}, args...)...)
			}
			body, _ := json.Marshal(RunRequest{
				Problem: "toy", Seed: int64(i), RandomSamples: 40, MaxIterations: 3, MaxBatch: 20,
			})
			resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				fail("create: %v", err)
				return
			}
			var st RunStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusCreated {
				fail("create: code %d err %v", resp.StatusCode, err)
				return
			}

			// Poll until terminal.
			deadline := time.Now().Add(60 * time.Second)
			for {
				r, err := http.Get(ts.URL + "/runs/" + st.ID)
				if err != nil {
					fail("poll: %v", err)
					return
				}
				err = json.NewDecoder(r.Body).Decode(&st)
				r.Body.Close()
				if err != nil {
					fail("poll decode: %v", err)
					return
				}
				if st.State.Terminal() {
					break
				}
				if time.Now().After(deadline) {
					fail("timed out in state %s", st.State)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			if st.State != StateDone {
				fail("state %s error %q", st.State, st.Error)
				return
			}

			// Fetch the front.
			r, err := http.Get(ts.URL + "/runs/" + st.ID + "/front")
			if err != nil {
				fail("front: %v", err)
				return
			}
			var sf core.StoredFront
			err = json.NewDecoder(r.Body).Decode(&sf)
			r.Body.Close()
			if err != nil || len(sf.Points) == 0 {
				fail("front: code %d err %v points %d", r.StatusCode, err, len(sf.Points))
				return
			}

			// Cancel (a no-op on a finished run, but the endpoint must
			// accept it).
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+st.ID, nil)
			dr, err := http.DefaultClient.Do(req)
			if err != nil {
				fail("cancel: %v", err)
				return
			}
			dr.Body.Close()
			if dr.StatusCode != http.StatusAccepted {
				fail("cancel: code %d", dr.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// All eight sessions ran over the same problem: the shared memo-cache
	// must have absorbed the overlap between seeds (different seeds still
	// revisit configurations in a 1600-point space).
	if mgr.Stats().CacheHits == 0 {
		t.Fatal("shared cache saw no hits across 8 sessions")
	}
}

func TestCacheHitsAcrossSequentialSessions(t *testing.T) {
	// Exploring the same space twice with the same seed must serve the
	// second session entirely from the memo-cache.
	_, ts := newTestServer(t, testProblem("toy", 0))
	req := RunRequest{Problem: "toy", Seed: 9, RandomSamples: 30, MaxIterations: 2}

	first := waitTerminal(t, ts, postRun(t, ts, req).ID)
	if first.CacheHits != 0 {
		t.Fatalf("first session reported %d hits", first.CacheHits)
	}
	second := waitTerminal(t, ts, postRun(t, ts, req).ID)
	if second.CacheHits == 0 {
		t.Fatal("second session over the same space saw no cache hits")
	}
	if second.CacheHits != second.Samples {
		t.Fatalf("second session: %d hits for %d samples", second.CacheHits, second.Samples)
	}
	if second.FrontSize != first.FrontSize {
		t.Fatalf("cached replay changed the front: %d vs %d", second.FrontSize, first.FrontSize)
	}
}

func TestCancelRunningSession(t *testing.T) {
	// A slow evaluator keeps the session alive; DELETE must cancel it
	// promptly and the partial front must become available.
	_, ts := newTestServer(t, testProblem("slow", 2*time.Millisecond))
	st := postRun(t, ts, RunRequest{
		Problem: "slow", Seed: 3, RandomSamples: 100, MaxIterations: 500, MaxBatch: 50, Workers: 1,
	})

	// Wait for the bootstrap to complete so the partial result is non-empty.
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, st.ID).Samples == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}

	start := time.Now()
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if since := time.Since(start); since > 20*time.Second {
		t.Fatalf("cancellation took %v", since)
	}
	if final.Samples == 0 {
		t.Fatal("cancelled session lost its partial samples")
	}

	// The partial front is served after cancellation.
	r, err := http.Get(ts.URL + "/runs/" + st.ID + "/front")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET front after cancel = %d", r.StatusCode)
	}
}

func TestEventStream(t *testing.T) {
	_, ts := newTestServer(t, testProblem("toy", time.Millisecond))
	st := postRun(t, ts, RunRequest{
		Problem: "toy", Seed: 5, RandomSamples: 30, MaxIterations: 2, MaxBatch: 20,
	})

	resp, err := http.Get(ts.URL + "/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []IterationEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev IterationEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// The stream closes when the run finishes, after the bootstrap and at
	// least one AL round have been emitted.
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events", len(events))
	}
	if events[0].Iteration != 0 || events[0].NewSamples != 30 {
		t.Fatalf("first event %+v is not the bootstrap", events[0])
	}
	// Per-phase timings stream with the events: the bootstrap reports its
	// evaluation time, and every AL round that fitted a model reports a
	// positive fit and predict duration.
	if events[0].EvalMS <= 0 {
		t.Fatalf("bootstrap event carries no eval time: %+v", events[0])
	}
	for _, ev := range events[1:] {
		if ev.FitMS <= 0 || ev.PredictMS <= 0 {
			t.Fatalf("AL event missing phase timings: %+v", ev)
		}
	}
	final := waitTerminal(t, ts, st.ID)
	if got := events[len(events)-1].TotalSamples; got != final.Samples {
		t.Fatalf("last event total %d, final samples %d", got, final.Samples)
	}
}

func TestAPIErrors(t *testing.T) {
	_, ts := newTestServer(t, testProblem("toy", 0))

	resp, _ := http.Post(ts.URL+"/runs", "application/json",
		bytes.NewReader([]byte(`{"problem":"nope"}`)))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown problem = %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, _ = http.Post(ts.URL+"/runs", "application/json",
		bytes.NewReader([]byte(`{garbage`)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown ids 404 whether or not they parse as a run sequence.
	for _, path := range []string{"/runs/run-999999", "/runs/run-999999/front", "/runs/run-999999/events", "/runs/bogus", "/runs/bogus/front"} {
		r, _ := http.Get(ts.URL + path)
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d", path, r.StatusCode)
		}
		r.Body.Close()
	}

	// Fetching the front of a run that has not finished its first phase.
	_, ts2 := newTestServer(t, testProblem("slow2", 10*time.Millisecond))
	st := postRun(t, ts2, RunRequest{Problem: "slow2", Seed: 1, RandomSamples: 200, Workers: 1})
	r, _ := http.Get(ts2.URL + "/runs/" + st.ID + "/front")
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("front of running session = %d", r.StatusCode)
	}
	r.Body.Close()
}

func TestRequestBudgetLimits(t *testing.T) {
	// One request must not be able to exhaust the shared daemon: absurd
	// budgets are rejected up front, not allocated.
	_, ts := newTestServer(t, testProblem("toy", 0))
	for _, body := range []string{
		`{"problem":"toy","trees":2000000000}`,
		`{"problem":"toy","random_samples":-5}`,
		`{"problem":"toy","workers":100000}`,
		`{"problem":"toy","pool_cap":2000000000}`,
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s → %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestStartAfterShutdownRefused(t *testing.T) {
	mgr := NewManagerConfig(Config{}, testProblem("toy", 0))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Start(RunRequest{Problem: "toy"}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Start after Shutdown = %v, want ErrShuttingDown", err)
	}
}

func TestRegisterReplacementResetsCache(t *testing.T) {
	// Replacing a problem (e.g. with a new evaluator) must not serve the
	// old evaluator's measurements from the shared cache.
	mgr, ts := newTestServer(t, testProblem("toy", 0))
	req := RunRequest{Problem: "toy", Seed: 2, RandomSamples: 20, MaxIterations: 1}
	waitTerminal(t, ts, postRun(t, ts, req).ID)
	if mgr.Stats().CacheMisses == 0 {
		t.Fatal("first session populated nothing")
	}
	mgr.Register(testProblem("toy", 0)) // same space, possibly new evaluator
	second := waitTerminal(t, ts, postRun(t, ts, req).ID)
	if second.CacheHits != 0 {
		t.Fatalf("replaced problem served %d stale hits", second.CacheHits)
	}
}

func TestProblemsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testProblem("alpha", 0), testProblem("beta", 0))
	resp, err := http.Get(ts.URL + "/problems")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var probs []struct {
		Name      string `json:"name"`
		SpaceSize int64  `json:"space_size"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&probs); err != nil {
		t.Fatal(err)
	}
	if len(probs) != 2 || probs[0].Name != "alpha" || probs[1].Name != "beta" {
		t.Fatalf("problems = %+v", probs)
	}
	if probs[0].SpaceSize != 1600 {
		t.Fatalf("space size = %d", probs[0].SpaceSize)
	}
}

func TestMaxUnmeasuredFractionValidation(t *testing.T) {
	_, ts := newTestServer(t, testProblem("toy", 0))
	for _, body := range []string{
		`{"problem":"toy","max_unmeasured_fraction":-0.1}`,
		`{"problem":"toy","max_unmeasured_fraction":1.5}`,
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s → %d, want 400", body, resp.StatusCode)
		}
	}
	// An in-range tolerance is accepted and the run completes.
	st := postRun(t, ts, RunRequest{Problem: "toy", Seed: 3, RandomSamples: 20,
		MaxIterations: 1, Workers: 1, MaxUnmeasuredFraction: 0.5})
	if final := waitTerminal(t, ts, st.ID); final.State != "done" {
		t.Fatalf("tolerant run ended %q: %s", final.State, final.Error)
	}
}
