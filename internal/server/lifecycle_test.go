package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/param"
	"repro/internal/sched"
)

func newTestServerConfig(t *testing.T, cfg Config, problems ...Problem) (*Manager, *httptest.Server) {
	t.Helper()
	mgr := NewManagerConfig(cfg, problems...)
	ts := httptest.NewServer(mgr.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil {
			t.Errorf("manager shutdown: %v", err)
		}
	})
	return mgr, ts
}

// waitEvicted polls until the id is gone from the store.
func waitEvicted(t *testing.T, mgr *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := mgr.Get(id); !ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s was never evicted", id)
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats = %d", resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStatusesOrderPastMillionSequence(t *testing.T) {
	// Ids compared as strings break at the run-%06d padding boundary:
	// "run-1000000" < "run-999999" lexicographically. Ordering must follow
	// the numeric sequence.
	mgr, ts := newTestServer(t, testProblem("toy", 0))
	mgr.seq.Store(999_998)
	req := RunRequest{Problem: "toy", Seed: 1, RandomSamples: 10, MaxIterations: 1}
	first := postRun(t, ts, req)  // run-999999
	second := postRun(t, ts, req) // run-1000000
	if first.ID != "run-999999" || second.ID != "run-1000000" {
		t.Fatalf("unexpected ids %q, %q", first.ID, second.ID)
	}
	waitTerminal(t, ts, first.ID)
	waitTerminal(t, ts, second.ID)

	sts := mgr.Statuses()
	if len(sts) != 2 {
		t.Fatalf("Statuses returned %d sessions", len(sts))
	}
	if sts[0].ID != "run-1000000" || sts[1].ID != "run-999999" {
		t.Fatalf("order = [%s, %s], want newest (run-1000000) first", sts[0].ID, sts[1].ID)
	}
}

func TestTTLEvictsTerminalSessions(t *testing.T) {
	mgr, ts := newTestServerConfig(t, Config{
		SessionTTL:      200 * time.Millisecond,
		janitorInterval: 10 * time.Millisecond,
	}, testProblem("toy", 0))

	st := postRun(t, ts, RunRequest{Problem: "toy", Seed: 1, RandomSamples: 10, MaxIterations: 1})
	waitTerminal(t, ts, st.ID)
	waitEvicted(t, mgr, st.ID)

	// An evicted id is a clean 404 on every per-run endpoint, not a crash.
	for _, path := range []string{"", "/front", "/events"} {
		resp, err := http.Get(ts.URL + "/runs/" + st.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /runs/{id}%s after eviction = %d, want 404", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE after eviction = %d, want 404", resp.StatusCode)
	}

	stats := getStats(t, ts)
	if stats.EvictedTTL == 0 {
		t.Fatalf("stats report no TTL evictions: %+v", stats)
	}
	if stats.Sessions != 0 {
		t.Fatalf("stats still count %d sessions", stats.Sessions)
	}
	if stats.TotalStarted != 1 {
		t.Fatalf("total_started = %d", stats.TotalStarted)
	}
}

func TestMaxSessionsEvictsOldestTerminalFirst(t *testing.T) {
	const maxKeep = 3
	mgr, ts := newTestServerConfig(t, Config{MaxSessions: maxKeep}, testProblem("toy", 0))

	// Six sessions run to completion one after another; the store must
	// never retain more than the cap, dropping the oldest finished runs.
	var ids []string
	for i := 0; i < 6; i++ {
		st := postRun(t, ts, RunRequest{
			Problem: "toy", Seed: int64(i), RandomSamples: 10, MaxIterations: 1,
		})
		ids = append(ids, st.ID)
		waitTerminal(t, ts, st.ID)
	}

	if n := mgr.store.Len(); n > maxKeep {
		t.Fatalf("store retains %d sessions, cap is %d", n, maxKeep)
	}
	// The newest maxKeep sessions survive; the oldest were evicted.
	for _, id := range ids[len(ids)-maxKeep:] {
		if _, ok := mgr.Get(id); !ok {
			t.Fatalf("recent session %s was evicted", id)
		}
	}
	for _, id := range ids[:len(ids)-maxKeep] {
		if _, ok := mgr.Get(id); ok {
			t.Fatalf("old terminal session %s survived past the cap", id)
		}
	}
	stats := getStats(t, ts)
	if want := int64(len(ids) - maxKeep); stats.EvictedCap != want {
		t.Fatalf("evicted_cap = %d, want %d", stats.EvictedCap, want)
	}
}

func TestRunningSessionsNeverEvicted(t *testing.T) {
	// Aggressive TTL and a cap of 1, with a long-running session started
	// first: the running session must survive every eviction pass while
	// newer sessions finish and expire around it.
	mgr, ts := newTestServerConfig(t, Config{
		SessionTTL:      20 * time.Millisecond,
		MaxSessions:     1,
		janitorInterval: 10 * time.Millisecond,
	}, testProblem("toy", 0), testProblem("slow", 5*time.Millisecond))

	running := postRun(t, ts, RunRequest{
		Problem: "slow", Seed: 1, RandomSamples: 100, MaxIterations: 500, MaxBatch: 50, Workers: 1,
	})
	// Eviction is the only wait needed: a session can be evicted only
	// after it turns terminal, and the aggressive TTL + cap guarantee the
	// janitor reclaims each fast session shortly after it finishes.
	for i := 0; i < 3; i++ {
		st := postRun(t, ts, RunRequest{
			Problem: "toy", Seed: int64(i), RandomSamples: 10, MaxIterations: 1,
		})
		waitEvicted(t, mgr, st.ID)
	}

	// All passes ran (everything else was evicted), yet the in-flight
	// session is still there and still running.
	st := getStatus(t, ts, running.ID)
	if st.State != StateRunning {
		t.Fatalf("running session state = %s", st.State)
	}
	stats := getStats(t, ts)
	if stats.Running != 1 || stats.Sessions != 1 {
		t.Fatalf("stats = %+v, want exactly the running session", stats)
	}

	// Cancel it; once terminal it becomes eligible and the janitor must
	// reclaim it, leaving the store empty.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+running.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled RunStatus
	err = json.NewDecoder(resp.Body).Decode(&cancelled)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d, err %v", resp.StatusCode, err)
	}
	// The DELETE response is the atomic post-cancel status — no second
	// lookup that eviction could invalidate.
	if cancelled.ID != running.ID {
		t.Fatalf("cancel returned status for %q", cancelled.ID)
	}
	waitEvicted(t, mgr, running.ID)
}

func TestBoundedMemoryUnderChurn(t *testing.T) {
	// The acceptance scenario: a daemon with both -session-ttl and
	// -max-sessions set, sequence seeded past the 10^6 rollover, one
	// in-flight session, and more finished sessions than the cap. The
	// retained count stays bounded, the in-flight session survives, and
	// Statuses orders numerically.
	const maxKeep = 4
	mgr, ts := newTestServerConfig(t, Config{
		SessionTTL:      10 * time.Second, // long: only the cap evicts here
		MaxSessions:     maxKeep,
		janitorInterval: 10 * time.Millisecond,
	}, testProblem("toy", 0), testProblem("slow", 5*time.Millisecond))
	mgr.seq.Store(999_997)

	running := postRun(t, ts, RunRequest{ // run-999998
		Problem: "slow", Seed: 1, RandomSamples: 100, MaxIterations: 500, MaxBatch: 50, Workers: 1,
	})
	const churn = 10
	for i := 0; i < churn; i++ {
		st := postRun(t, ts, RunRequest{
			Problem: "toy", Seed: int64(i), RandomSamples: 10, MaxIterations: 1,
		})
		waitTerminal(t, ts, st.ID)
	}

	if n := mgr.store.Len(); n > maxKeep {
		t.Fatalf("store retains %d sessions after churn, cap is %d", n, maxKeep)
	}
	if st := getStatus(t, ts, running.ID); st.State != StateRunning {
		t.Fatalf("in-flight session did not survive churn: %s", st.State)
	}

	sts := mgr.Statuses()
	for i := 1; i < len(sts); i++ {
		prev, _ := parseSeq(sts[i-1].ID)
		cur, _ := parseSeq(sts[i].ID)
		if cur >= prev {
			t.Fatalf("Statuses not newest-first numerically: %s before %s", sts[i-1].ID, sts[i].ID)
		}
	}
	// The listing spans the rollover: churn pushed ids past run-1000000
	// while the running session holds run-999998.
	last := sts[len(sts)-1]
	if last.ID != running.ID {
		t.Fatalf("oldest retained = %s, want the running session %s", last.ID, running.ID)
	}
	stats := getStats(t, ts)
	if stats.EvictedCap == 0 || stats.MaxSessions != maxKeep {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.TotalStarted != 999_997+1+churn {
		t.Fatalf("total_started = %d", stats.TotalStarted)
	}
}

// A retained session holds its terminal record — status, progress events,
// front — and nothing of the engine's result: not the samples, not their
// configurations, and not the final forests, which are by far the largest
// part (a session that pinned its *core.Result measured 74 KiB here, against
// 4 KiB for the record).
func TestRetainedSessionHeap(t *testing.T) {
	const (
		sessions = 32
		bound    = 16 << 10 // bytes of live heap per retained session
	)
	mgr := NewManagerConfig(Config{}, testProblem("toy", 0))
	defer shutdownManager(t, mgr)
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle frees what the first one's finalizers released
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	req := persistReq
	req.NoCache = true // the shared memo-cache is the problem's, not a session's
	start := liveHeap()
	for i := range sessions {
		req.Seed = int64(i + 1)
		st, err := mgr.Start(req)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitManagerTerminal(t, mgr, st.ID); final.State != StateDone {
			t.Fatalf("run %s = %s (%s)", st.ID, final.State, final.Error)
		}
	}
	if got := mgr.Stats().Terminal; got != sessions {
		t.Fatalf("%d terminal sessions retained, want %d", got, sessions)
	}
	per := (int64(liveHeap()) - int64(start)) / sessions
	t.Logf("live heap per retained session: %d bytes", per)
	if per > bound {
		t.Errorf("a retained session holds %d bytes of live heap, want ≤ %d", per, bound)
	}
}

func TestEmptyCollectionsMarshalAsArrays(t *testing.T) {
	// Strict clients reject null where a collection is expected: an empty
	// problem registry and a pre-first-event status must both say [].
	_, ts := newTestServer(t) // no problems registered
	resp, err := http.Get(ts.URL + "/problems")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.TrimSpace(string(body)); got != "[]" {
		t.Fatalf("GET /problems with no problems = %q, want []", got)
	}

	// A slow bootstrap means the first status precedes the first event.
	_, ts2 := newTestServer(t, testProblem("slow", 10*time.Millisecond))
	st := postRun(t, ts2, RunRequest{Problem: "slow", Seed: 1, RandomSamples: 200, Workers: 1})
	r, err := http.Get(ts2.URL + "/runs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r.Body)
	r.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(raw["iterations"])); got != "[]" {
		t.Fatalf(`"iterations" before the first event = %s, want []`, got)
	}
}

func TestEventTimingFieldsAlwaysPresent(t *testing.T) {
	// The phase timings must not be dropped by omitempty: the bootstrap
	// event has no fit/encode/predict phase, and those fields must still
	// appear (as 0) so consumers can tell "zero" from "missing".
	var ev IterationEvent
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"fit_ms", "encode_ms", "predict_ms", "eval_ms"} {
		if !strings.Contains(string(b), fmt.Sprintf("%q:0", field)) {
			t.Fatalf("marshalled zero event %s is missing %q", b, field)
		}
	}
}

// endingEnv is one manager under test in TestSessionEndings: a durable
// manager over a gated problem, so a run stays mid-evaluation until the row
// opens the gate.
type endingEnv struct {
	cfg  Config
	m    *Manager
	gate chan struct{}
}

func newEndingEnv(cfg Config) *endingEnv {
	e := &endingEnv{cfg: cfg, gate: make(chan struct{})}
	// "broken" measures nothing: once the gate opens its runs fail in the
	// bootstrap, inside the engine.
	broken := gatedProblem("broken", e.gate)
	broken.Eval = core.EvaluatorFunc(func(param.Config) []float64 {
		<-e.gate
		return nil
	})
	e.m = NewManagerConfig(cfg, gatedProblem("toy", e.gate), broken)
	return e
}

// served is what a client reads of a run: the status code and body of
// GET /runs/{id} and of GET /runs/{id}/front.
func (e *endingEnv) served(t *testing.T, id string) [2]string {
	t.Helper()
	ts := httptest.NewServer(e.m.Handler())
	defer ts.Close()
	var out [2]string
	for i, path := range []string{"/runs/" + id, "/runs/" + id + "/front"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fmt.Sprintf("%d %s", resp.StatusCode, body)
	}
	return out
}

// wantAfterRestart starts a second manager on the (shut down) first one's
// directory. A run whose ending was persisted must read there exactly as it
// read before — status and front, byte for byte; one that ended without
// ever reaching the disk is gone.
func (e *endingEnv) wantAfterRestart(t *testing.T, id string, before [2]string, persisted bool) {
	t.Helper()
	r := newEndingEnv(e.cfg)
	close(r.gate)
	defer r.shutdown(t)
	after := r.served(t, id)
	for i, what := range []string{"status", "front"} {
		switch {
		case persisted && after[i] != before[i]:
			t.Errorf("%s of %s after a restart:\n%s\nbefore it:\n%s", what, id, after[i], before[i])
		case !persisted && !strings.HasPrefix(after[i], "404 "):
			t.Errorf("%s of %s, which left no directory, after a restart: %s", what, id, after[i])
		}
	}
}

// submit starts one run and reports whether it queued: behind a held slot
// it does on the one-slot scheduler and does not on the default config.
func (e *endingEnv) submit(t *testing.T) (RunStatus, bool) {
	t.Helper()
	st, err := e.m.Start(schedReq)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return st, st.State == StateQueued
}

// blockNextRunDir makes the next run's directory impossible to create.
func (e *endingEnv) blockNextRunDir(t *testing.T) string {
	t.Helper()
	path := filepath.Join(e.cfg.DataDir, "runs", fmt.Sprintf("run-%06d", e.m.seq.Load()+1))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// beginShutdown calls Shutdown on its own goroutine, for rows that act
// while it is in progress.
func (e *endingEnv) beginShutdown() <-chan error {
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- e.m.Shutdown(ctx)
	}()
	return done
}

// awaitShutdown is every row's last step: Shutdown must return within its
// deadline (a session that kept its waitgroup slot would hang it) and leave
// no scheduler slot held. A session released twice panics the test binary
// with "sync: negative WaitGroup counter".
func (e *endingEnv) awaitShutdown(t *testing.T, done <-chan error) {
	t.Helper()
	if err := <-done; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if sc := e.m.Stats().Sched; sc.Running != 0 || sc.Queued != 0 || len(sc.Tenants) != 0 {
		t.Errorf("scheduler still holds work after shutdown: %+v", sc)
	}
}

func (e *endingEnv) shutdown(t *testing.T) {
	t.Helper()
	e.awaitShutdown(t, e.beginShutdown())
}

func (e *endingEnv) wantDir(t *testing.T, id string, want bool) {
	t.Helper()
	if got := runDirExists(t, e.cfg.DataDir, id); got != want {
		t.Errorf("run directory of %s exists = %v, want %v", id, got, want)
	}
}

// sessionEndings has one row per way a session can end. Each row runs on
// the default config and on a one-slot scheduler. Rows that hold the slot
// with a first run make the second one queue on the scheduler; the default
// config admits it at once, and what the row expects follows from which of
// the two happened — a run that never left the queue ends cancelled and
// leaves no directory.
var sessionEndings = []struct {
	name string
	run  func(t *testing.T, e *endingEnv)
}{
	{"admitted and finished", func(t *testing.T, e *endingEnv) {
		close(e.gate)
		st, _ := e.submit(t)
		if final := waitManagerTerminal(t, e.m, st.ID); final.State != StateDone {
			t.Errorf("final state = %s (%s)", final.State, final.Error)
		}
		before := e.served(t, st.ID)
		if !strings.HasPrefix(before[1], "200 ") {
			t.Errorf("front of a finished run: %s", before[1])
		}
		e.shutdown(t)
		e.wantDir(t, st.ID, true)
		e.wantAfterRestart(t, st.ID, before, true)
	}},
	{"failed in the engine", func(t *testing.T, e *endingEnv) {
		req := schedReq
		req.Problem = "broken"
		st, err := e.m.Start(req)
		if err != nil {
			t.Fatal(err)
		}
		close(e.gate)
		if final := waitManagerTerminal(t, e.m, st.ID); final.State != StateFailed || final.Error == "" {
			t.Errorf("final state = %s (%q), want failed with its reason", final.State, final.Error)
		}
		before := e.served(t, st.ID)
		e.shutdown(t)
		e.wantAfterRestart(t, st.ID, before, true)
	}},
	{"queued then shutdown-dropped", func(t *testing.T, e *endingEnv) {
		e.submit(t) // holds the slot
		st, queued := e.submit(t)
		done := e.beginShutdown()
		if queued {
			// Dropped from the queue before any live run drained.
			waitState(t, e.m, st.ID, StateCancelled)
		} else {
			<-e.m.baseCtx.Done() // cancelled mid-evaluation, not finished
		}
		close(e.gate)
		e.awaitShutdown(t, done)
		if final := waitManagerTerminal(t, e.m, st.ID); final.State != StateCancelled {
			t.Errorf("final state = %s, want cancelled", final.State)
		}
		e.wantDir(t, st.ID, !queued)
		if queued {
			// (Cancelled mid-run by the shutdown it stays resumable instead;
			// the "resumed" row restarts that one.)
			e.wantAfterRestart(t, st.ID, [2]string{}, false)
		}
	}},
	{"queued then DELETEd", func(t *testing.T, e *endingEnv) {
		e.submit(t)
		st, queued := e.submit(t)
		cst, ok := e.m.Cancel(st.ID)
		if !ok || (queued && cst.State != StateCancelled) {
			t.Fatalf("cancel = %+v, %v", cst, ok)
		}
		close(e.gate)
		if final := waitManagerTerminal(t, e.m, st.ID); final.State != StateCancelled {
			t.Errorf("final state = %s, want cancelled", final.State)
		}
		before := e.served(t, st.ID)
		e.shutdown(t)
		e.wantDir(t, st.ID, !queued)
		// Cancelled mid-run (admitted at once, DELETEd behind the gate), the
		// ending is on disk; cancelled in the queue, nothing is.
		e.wantAfterRestart(t, st.ID, before, !queued)
	}},
	{"dispatch after Shutdown began", func(t *testing.T, e *endingEnv) {
		e.submit(t)
		st, queued := e.submit(t)
		// Shutdown's first step, frozen there: the holder's Done now hands
		// the queued run to a manager that must not start it.
		e.m.mu.Lock()
		e.m.closed = true
		e.m.mu.Unlock()
		close(e.gate)
		want := StateDone
		if queued {
			want = StateCancelled
		}
		if final := waitManagerTerminal(t, e.m, st.ID); final.State != want {
			t.Errorf("final state = %s, want %s", final.State, want)
		}
		before := e.served(t, st.ID)
		e.shutdown(t)
		e.wantDir(t, st.ID, !queued)
		e.wantAfterRestart(t, st.ID, before, !queued)
	}},
	{"storage failure at submission", func(t *testing.T, e *endingEnv) {
		// Admitted inside Submit on both configs: the client gets a 500 and
		// no run, not a 201 with a failed one.
		blocked := e.blockNextRunDir(t)
		ts := httptest.NewServer(e.m.Handler())
		defer ts.Close()
		body, _ := json.Marshal(schedReq)
		resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("POST /runs = %d, want 500", resp.StatusCode)
		}
		if n := len(e.m.Statuses()); n != 0 {
			t.Errorf("store holds %d sessions after the refused launch", n)
		}
		if fi, err := os.Stat(blocked); err != nil || fi.IsDir() {
			t.Errorf("refused launch left a directory behind (%v)", err)
		}
		e.shutdown(t)
	}},
	{"storage failure after the queue", func(t *testing.T, e *endingEnv) {
		e.submit(t)
		e.blockNextRunDir(t)
		st, err := e.m.Start(schedReq)
		close(e.gate)
		if err != nil {
			// Admitted at once (default config): same answer as above.
			if !errors.Is(err, ErrStorage) || len(e.m.Statuses()) != 1 {
				t.Errorf("err = %v with %d sessions, want ErrStorage and only the holder", err, len(e.m.Statuses()))
			}
		} else {
			// The client already holds the id, so the failure is its state.
			final := waitManagerTerminal(t, e.m, st.ID)
			if final.State != StateFailed || !strings.Contains(final.Error, ErrStorage.Error()) {
				t.Errorf("dequeued run = %s (%q), want failed with a storage error", final.State, final.Error)
			}
			before := e.served(t, st.ID)
			if !strings.HasPrefix(before[1], "409 ") {
				t.Errorf("front of a run refused at dispatch: %s", before[1])
			}
			e.shutdown(t)
			e.wantAfterRestart(t, st.ID, before, false)
			return
		}
		e.shutdown(t)
	}},
	{"resumed", func(t *testing.T, e *endingEnv) {
		// Interrupt a run by shutdown, then restart on the same directory.
		st, _ := e.submit(t)
		done := e.beginShutdown()
		<-e.m.baseCtx.Done() // cancelled mid-evaluation, not finished
		close(e.gate)
		e.awaitShutdown(t, done)
		if _, err := os.Stat(filepath.Join(e.cfg.DataDir, "runs", st.ID, "result.json")); !os.IsNotExist(err) {
			t.Fatalf("interrupted run has a result.json (err=%v); nothing to resume", err)
		}
		cfg := e.cfg
		cfg.Resume = true
		r := newEndingEnv(cfg)
		close(r.gate)
		if final := waitManagerTerminal(t, r.m, st.ID); final.State != StateDone {
			t.Errorf("resumed run = %s (%s)", final.State, final.Error)
		}
		// Resumed runs skip admission, as documented.
		if sc := r.m.Stats().Sched; sc.Submitted != 0 {
			t.Errorf("resumed run went through admission: %+v", sc)
		}
		before := r.served(t, st.ID)
		r.shutdown(t)
		r.wantAfterRestart(t, st.ID, before, true)
	}},
}

func TestSessionEndings(t *testing.T) {
	for _, mode := range []struct {
		name  string
		sched *sched.Config
	}{
		{"default", nil},
		{"one-slot", &sched.Config{MaxRunning: 1}},
	} {
		for _, row := range sessionEndings {
			t.Run(mode.name+"/"+row.name, func(t *testing.T) {
				row.run(t, newEndingEnv(Config{DataDir: t.TempDir(), Sched: mode.sched}))
			})
		}
	}
}
