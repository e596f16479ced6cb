package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/param"
	"repro/internal/sched"
)

// gatedProblem returns a problem whose evaluator blocks until gate is
// closed, so tests can hold a run mid-evaluation while asserting queue
// behavior around it.
func gatedProblem(name string, gate chan struct{}) Problem {
	space := param.MustSpace(
		param.Grid("a", 0, 4, 40),
		param.Grid("b", 0, 4, 40),
	)
	eval := core.EvaluatorFunc(func(cfg param.Config) []float64 {
		<-gate
		return []float64{cfg[0] + 1, cfg[1] + 1}
	})
	return Problem{Name: name, Space: space, Eval: eval, Objectives: []string{"f0", "f1"}}
}

var schedReq = RunRequest{
	Problem: "toy", Seed: 3, RandomSamples: 4, MaxIterations: 1, MaxBatch: 4,
}

func schedCfg(dir string) Config {
	return Config{
		DataDir: dir,
		Sched: &sched.Config{
			MaxRunning: 1,
			Quota:      sched.TenantQuota{MaxQueued: 1},
		},
	}
}

func runDirExists(t *testing.T, dataDir, id string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(dataDir, "runs", id))
	if err == nil {
		return true
	}
	if !os.IsNotExist(err) {
		t.Fatalf("stat run dir %s: %v", id, err)
	}
	return false
}

func waitState(t *testing.T, m *Manager, id string, want State) RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s, ok := m.Get(id)
		if !ok {
			t.Fatalf("run %s not found while waiting for %s", id, want)
		}
		if st := s.status(); st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never reached state %s", id, want)
	return RunStatus{}
}

// TestSchedQueueCancelLeavesNoRunDir is the S6 regression: a run cancelled
// while still queued must leave no trace in the data directory —
// persistence happens at dispatch, after admission, never at submission.
func TestSchedQueueCancelLeavesNoRunDir(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	m := NewManagerConfig(schedCfg(dir), gatedProblem("toy", gate))

	st1, err := m.Start(schedReq)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if st1.State != StateRunning {
		t.Fatalf("run 1 state = %s, want running (immediate admission)", st1.State)
	}
	if !runDirExists(t, dir, st1.ID) {
		t.Fatal("admitted run has no run directory")
	}

	req2 := schedReq
	req2.Tenant, req2.Priority = "team-b", 7
	st2, err := m.Start(req2)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if st2.State != StateQueued {
		t.Fatalf("run 2 state = %s, want queued (slot held by run 1)", st2.State)
	}
	if st2.Tenant != "team-b" || st2.Priority != 7 {
		t.Fatalf("queued status does not echo identity: %+v", st2)
	}
	if runDirExists(t, dir, st2.ID) {
		t.Fatal("queued run already has a run directory (S6: persistence must wait for dispatch)")
	}

	cst, ok := m.Cancel(st2.ID)
	if !ok || cst.State != StateCancelled {
		t.Fatalf("cancel queued run = %+v, %v", cst, ok)
	}
	if runDirExists(t, dir, st2.ID) {
		t.Fatal("queue-cancelled run leaked a run directory")
	}

	close(gate)
	if st := waitManagerTerminal(t, m, st1.ID); st.State != StateDone {
		t.Fatalf("run 1 final state = %s", st.State)
	}
	shutdownManager(t, m)
	if runDirExists(t, dir, st2.ID) {
		t.Fatal("cancelled run directory appeared after shutdown")
	}
	if !runDirExists(t, dir, st1.ID) {
		t.Fatal("completed run lost its directory")
	}
}

// TestSchedRejectLeavesNoSessionOrDir: a submission past the tenant queue
// bound is rejected atomically — no session in the store, no run directory,
// no waitgroup leak.
func TestSchedRejectLeavesNoSessionOrDir(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	m := NewManagerConfig(schedCfg(dir), gatedProblem("toy", gate))

	st1, err := m.Start(schedReq)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m.Start(schedReq)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Start(schedReq)
	if !errors.Is(err, sched.ErrQueueFull) {
		t.Fatalf("third submit error = %v, want ErrQueueFull", err)
	}
	if got := len(m.Statuses()); got != 2 {
		t.Fatalf("store holds %d sessions after rejection, want 2", got)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "runs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != st1.ID {
		t.Fatalf("runs dir = %v, want exactly [%s]", entries, st1.ID)
	}

	if _, ok := m.Cancel(st2.ID); !ok {
		t.Fatal("cancelling queued run 2")
	}
	close(gate)
	waitManagerTerminal(t, m, st1.ID)
	shutdownManager(t, m)
}

// TestSchedShutdownDropsQueuedNoDir: Shutdown aborts still-queued runs —
// they finish cancelled, never start an engine, and leave no directory.
func TestSchedShutdownDropsQueuedNoDir(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	m := NewManagerConfig(schedCfg(dir), gatedProblem("toy", gate))

	st1, err := m.Start(schedReq)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m.Start(schedReq)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- m.Shutdown(ctx)
	}()
	// Shutdown drops the queued ticket before waiting on live runs.
	waitState(t, m, st2.ID, StateCancelled)
	close(gate) // let run 1's blocked evaluation drain
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if runDirExists(t, dir, st2.ID) {
		t.Fatal("shutdown-dropped run leaked a run directory")
	}
	if !runDirExists(t, dir, st1.ID) {
		t.Fatal("dispatched run lost its directory across shutdown")
	}
}

// TestSchedHTTP429RetryAfter drives the whole backpressure path over real
// HTTP: tenant identity via the X-Tenant header, 429 + Retry-After on a
// full queue, queued-state visibility in /stats, and DELETE of a queued
// run.
func TestSchedHTTP429RetryAfter(t *testing.T) {
	gate := make(chan struct{})
	m := NewManagerConfig(Config{
		Sched: &sched.Config{
			MaxRunning: 1,
			Quota:      sched.TenantQuota{MaxQueued: 1},
			RetryAfter: 3 * time.Second,
		},
	}, gatedProblem("toy", gate))
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	post := func(tenant string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(schedReq)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/runs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp1 := post("alpha")
	var st1 RunStatus
	if err := json.NewDecoder(resp1.Body).Decode(&st1); err != nil {
		t.Fatal(err)
	}
	resp1.Body.Close()
	if resp1.StatusCode != http.StatusCreated || st1.Tenant != "alpha" {
		t.Fatalf("run 1: code %d, status %+v (header tenant not applied)", resp1.StatusCode, st1)
	}

	resp2 := post("alpha")
	var st2 RunStatus
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated || st2.State != StateQueued {
		t.Fatalf("run 2: code %d, state %s, want created+queued", resp2.StatusCode, st2.State)
	}

	resp3 := post("alpha")
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("run 3 code = %d, want 429", resp3.StatusCode)
	}
	if ra := resp3.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want %q", ra, "3")
	}

	// A different tenant is not affected by alpha's full queue.
	resp4 := post("beta")
	var st4 RunStatus
	if err := json.NewDecoder(resp4.Body).Decode(&st4); err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusCreated {
		t.Fatalf("beta submit code = %d, want 201 (independent quota)", resp4.StatusCode)
	}

	var stats Stats
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Sched == nil || stats.Sched.Rejected != 1 || stats.Queued != 2 {
		t.Fatalf("stats missing scheduler accounting: queued=%d sched=%+v", stats.Queued, stats.Sched)
	}

	// DELETE a queued run resolves it to cancelled without ever running.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+st2.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	var dst RunStatus
	if err := json.NewDecoder(dresp.Body).Decode(&dst); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dst.State != StateCancelled {
		t.Fatalf("deleted queued run state = %s, want cancelled", dst.State)
	}

	close(gate)
	waitTerminal(t, ts, st1.ID)
	waitTerminal(t, ts, st4.ID)
	shutdownManager(t, m)
}

// TestCoalescingKeepsEachProblemsEvaluator: two problems over one design
// space (as the kfusion/<platform> builtins are), one run on each, on a
// daemon with a scheduler config. Each run must be measured by its own
// problem's evaluator.
func TestCoalescingKeepsEachProblemsEvaluator(t *testing.T) {
	space := param.MustSpace(param.Grid("a", 0, 4, 40), param.Grid("b", 0, 4, 40))
	var calls [2]atomic.Int64
	problem := func(name string, k int, offset float64) Problem {
		eval := core.EvaluatorFunc(func(cfg param.Config) []float64 {
			calls[k].Add(1)
			return []float64{cfg[0] + offset, cfg[1] + offset}
		})
		return Problem{Name: name, Space: space, Eval: eval, Objectives: []string{"f0", "f1"}}
	}
	m := NewManagerConfig(Config{Sched: &sched.Config{}}, problem("pa", 0, 1), problem("pb", 1, 1001))
	defer shutdownManager(t, m)

	ids := map[string]string{}
	for _, name := range []string{"pa", "pb"} {
		req := schedReq
		req.Problem = name
		st, err := m.Start(req)
		if err != nil {
			t.Fatalf("run on %s: %v", name, err)
		}
		ids[name] = st.ID
	}
	for name, id := range ids {
		if st := waitManagerTerminal(t, m, id); st.State != StateDone {
			t.Fatalf("run on %s ended %s: %s", name, st.State, st.Error)
		}
	}
	if a, b := calls[0].Load(), calls[1].Load(); a == 0 || b == 0 {
		t.Fatalf("evaluator calls: pa %d, pb %d; each problem's run must reach its own evaluator", a, b)
	}
	if lo := frontMin(t, m, ids["pb"]); lo < 1000 {
		t.Fatalf("pb's front holds %v, measured by pa's evaluator", lo)
	}
}

// TestNoCoalescerOnScheduledDaemon: a scheduler config changes admission
// only. Runs with and without the memo-cache measure through the problem's
// backend, here each run's own LocalBackend, so a run's Workers field
// bounds its concurrent evaluations, and /stats reports no coalescer.
func TestNoCoalescerOnScheduledDaemon(t *testing.T) {
	var inFlight, peak atomic.Int64
	p := testProblem("toy", 0)
	eval := p.Eval
	p.Eval = core.EvaluatorFunc(func(cfg param.Config) []float64 {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		return eval.Evaluate(cfg)
	})
	m := NewManagerConfig(Config{Sched: &sched.Config{}}, p)
	defer shutdownManager(t, m)

	for _, noCache := range []bool{false, true} {
		req := schedReq
		req.Workers, req.NoCache = 1, noCache
		st, err := m.Start(req)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitManagerTerminal(t, m, st.ID); st.State != StateDone {
			t.Fatalf("no_cache=%v run ended %s: %s", noCache, st.State, st.Error)
		}
	}
	if n := peak.Load(); n != 1 {
		t.Fatalf("%d evaluations in flight at once; Workers 1 allows one", n)
	}
	if c := m.Stats().Coalesce; c != nil {
		t.Fatalf("coalesce stats %+v; no run should reach a coalescer", c)
	}
}

// frontMin returns the smallest first objective on a finished run's front.
func frontMin(t *testing.T, m *Manager, id string) float64 {
	t.Helper()
	s, _ := m.Get(id)
	s.mu.Lock()
	front := s.record.Front
	s.mu.Unlock()
	if front == nil || len(front.Points) == 0 {
		t.Fatalf("run %s has no front", id)
	}
	lo := front.Points[0].Objs[0]
	for _, pt := range front.Points {
		lo = min(lo, pt.Objs[0])
	}
	return lo
}

// TestRegisterWhileQueuedKeepsEachRunsEvaluator: a run queued on problem p
// when Register replaces p (same space, an evaluator that adds 1000) is
// measured by the evaluator it was submitted against, and the next run of
// p by the replacement's — a queued run must not bind the replacement's
// record to the old evaluator.
func TestRegisterWhileQueuedKeepsEachRunsEvaluator(t *testing.T) {
	gate := make(chan struct{})
	space := param.MustSpace(param.Grid("a", 0, 4, 40), param.Grid("b", 0, 4, 40))
	var calls [2]atomic.Int64
	problem := func(k int, offset float64) Problem {
		eval := core.EvaluatorFunc(func(cfg param.Config) []float64 {
			calls[k].Add(1)
			return []float64{cfg[0] + offset, cfg[1] + offset}
		})
		return Problem{Name: "p", Space: space, Eval: eval, Objectives: []string{"f0", "f1"}}
	}
	m := NewManagerConfig(Config{Sched: &sched.Config{MaxRunning: 1}}, gatedProblem("gate", gate), problem(0, 1))
	defer shutdownManager(t, m)

	blocker := schedReq
	blocker.Problem = "gate"
	stGate, err := m.Start(blocker)
	if err != nil {
		t.Fatal(err)
	}
	req := schedReq
	req.Problem = "p"
	queued, err := m.Start(req)
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != StateQueued {
		t.Fatalf("run on p is %s, want queued behind the gated run", queued.State)
	}
	m.Register(problem(1, 1001))
	close(gate)
	waitManagerTerminal(t, m, stGate.ID)
	if st := waitManagerTerminal(t, m, queued.ID); st.State != StateDone {
		t.Fatalf("queued run ended %s: %s", st.State, st.Error)
	}
	if lo := frontMin(t, m, queued.ID); lo >= 1000 {
		t.Fatalf("queued run's front holds %v, measured by the replacement's evaluator", lo)
	}
	next, err := m.Start(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitManagerTerminal(t, m, next.ID); st.State != StateDone {
		t.Fatalf("run after Register ended %s: %s", st.State, st.Error)
	}
	if lo := frontMin(t, m, next.ID); lo < 1000 {
		t.Fatalf("run after Register has front %v, measured by the replaced evaluator", lo)
	}
	if old, repl := calls[0].Load(), calls[1].Load(); old == 0 || repl == 0 {
		t.Fatalf("evaluator calls: replaced %d, replacement %d; each run must reach its own", old, repl)
	}
}

// TestSchedQueuedRunDispatchesAndCompletes: the plain happy path — a
// queued run dispatches when the slot frees and finishes done, with the
// scheduler's stats reflecting both dispatches.
func TestSchedQueuedRunDispatchesAndCompletes(t *testing.T) {
	gate := make(chan struct{})
	m := NewManagerConfig(Config{
		Sched: &sched.Config{MaxRunning: 1},
	}, gatedProblem("toy", gate))

	st1, err := m.Start(schedReq)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m.Start(schedReq)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateQueued {
		t.Fatalf("run 2 state = %s, want queued", st2.State)
	}
	close(gate)
	if st := waitManagerTerminal(t, m, st1.ID); st.State != StateDone {
		t.Fatalf("run 1 final state = %s", st.State)
	}
	if st := waitManagerTerminal(t, m, st2.ID); st.State != StateDone {
		t.Fatalf("run 2 final state = %s", st.State)
	}
	stats := m.Stats()
	if stats.Sched == nil || stats.Sched.Dispatched != 2 || stats.Sched.Running != 0 {
		t.Fatalf("scheduler stats after drain: %+v", stats.Sched)
	}
	shutdownManager(t, m)
}
