package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/param"
)

// persistReq is the run request used across the persistence tests: big
// enough to exercise bootstrap + AL rounds, small enough to stay fast.
var persistReq = RunRequest{
	Problem: "toy", Seed: 11, RandomSamples: 25, MaxIterations: 3, MaxBatch: 12,
}

func shutdownManager(t *testing.T, mgr *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func getFrontBytes(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id + "/front")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/%s/front = %d: %s", id, resp.StatusCode, data)
	}
	return string(data)
}

func waitManagerTerminal(t *testing.T, mgr *Manager, id string) RunStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		s, ok := mgr.Get(id)
		if !ok {
			t.Fatalf("run %s not found while waiting", id)
		}
		if st := s.status(); st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s did not reach a terminal state", id)
	return RunStatus{}
}

// A finished run must survive a daemon restart: status, error-free state,
// and the exact front keep serving from the persisted artifacts.
func TestPersistRestartServesTerminalRuns(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir}

	m1 := NewManagerConfig(cfg, testProblem("toy", 0))
	ts1 := httptest.NewServer(m1.Handler())
	st := postRun(t, ts1, persistReq)
	final := waitTerminal(t, ts1, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	front1 := getFrontBytes(t, ts1, st.ID)
	ts1.Close()
	shutdownManager(t, m1)

	m2 := NewManagerConfig(cfg, testProblem("toy", 0))
	ts2 := httptest.NewServer(m2.Handler())
	defer ts2.Close()
	defer shutdownManager(t, m2)

	restored := getStatus(t, ts2, st.ID)
	if restored.State != StateDone {
		t.Errorf("restored state = %s, want done", restored.State)
	}
	if restored.Samples != final.Samples || restored.FrontSize != final.FrontSize {
		t.Errorf("restored status %d samples/%d front, want %d/%d",
			restored.Samples, restored.FrontSize, final.Samples, final.FrontSize)
	}
	if len(restored.Iterations) != len(final.Iterations) {
		t.Errorf("restored %d iteration events, want %d", len(restored.Iterations), len(final.Iterations))
	}
	if front2 := getFrontBytes(t, ts2, st.ID); front2 != front1 {
		t.Error("restored front differs from the front served before restart")
	}
	// New runs on the restarted daemon must not collide with restored ids.
	st2 := postRun(t, ts2, persistReq)
	if st2.ID == st.ID {
		t.Fatalf("restarted daemon reissued id %s", st.ID)
	}
	waitTerminal(t, ts2, st2.ID)
}

// Graceful shutdown mid-run leaves the run resumable — its journal holds
// only batch records after the header, and there is no result.json; a
// restart with Resume replays the journal and finishes with a front
// byte-identical to an uninterrupted run of the same seed.
func TestPersistShutdownResumeByteIdentical(t *testing.T) {
	// Uninterrupted reference, memory-only.
	ref, tsRef := newTestServer(t, testProblem("toy", 0))
	_ = ref
	refSt := postRun(t, tsRef, persistReq)
	if st := waitTerminal(t, tsRef, refSt.ID); st.State != StateDone {
		t.Fatalf("reference run: %s (%s)", st.State, st.Error)
	}
	refFront := getFrontBytes(t, tsRef, refSt.ID)

	dir := t.TempDir()
	cfg := Config{DataDir: dir, Resume: true}
	// Slow evaluator: the run cannot finish before the shutdown below.
	m1 := NewManagerConfig(cfg, testProblem("toy", 3*time.Millisecond))
	ts1 := httptest.NewServer(m1.Handler())
	st := postRun(t, ts1, persistReq)

	// Wait for at least the bootstrap to be journaled, then shut down.
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts1, st.ID).Samples < persistReq.RandomSamples {
		if time.Now().After(deadline) {
			t.Fatal("bootstrap never journaled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts1.Close()
	shutdownManager(t, m1)

	if _, err := os.Stat(filepath.Join(dir, "runs", st.ID, "result.json")); !os.IsNotExist(err) {
		t.Fatalf("shutdown-cancelled run has a result.json (err=%v); it would not be resumable", err)
	}
	// A graceful shutdown appends nothing: the journal is what a crash
	// between two batch appends leaves, with no done marker to stop a resume.
	data, err := os.ReadFile(filepath.Join(dir, "runs", st.ID, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("journal holds no batch record:\n%s", data)
	}
	for i, line := range lines[1:] {
		var r struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.T != journal.TypeBatch {
			t.Fatalf("journal line %d after a graceful shutdown is %s, want only batch records after the header", i+2, line)
		}
	}

	m2 := NewManagerConfig(cfg, testProblem("toy", 0))
	ts2 := httptest.NewServer(m2.Handler())
	defer ts2.Close()
	defer shutdownManager(t, m2)

	final := waitTerminal(t, ts2, st.ID)
	if final.State != StateDone {
		t.Fatalf("resumed run: %s (%s)", final.State, final.Error)
	}
	if got := getFrontBytes(t, ts2, st.ID); got != refFront {
		t.Errorf("resumed front differs from uninterrupted reference:\n resumed: %s\n reference: %s", got, refFront)
	}
	if code := getReadyz(t, ts2); code != http.StatusOK {
		t.Errorf("readyz after resume completed = %d, want 200", code)
	}
}

// An evicted persistent session's files are deleted, and the 404 survives
// a restart — eviction must not resurrect as a zombie at the next
// recovery scan.
func TestPersistEvictionUnlinksAndSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, MaxSessions: 1, janitorInterval: time.Hour}

	m1 := NewManagerConfig(cfg, testProblem("toy", 0))
	ts1 := httptest.NewServer(m1.Handler())
	first := postRun(t, ts1, persistReq)
	waitTerminal(t, ts1, first.ID)
	firstDir := filepath.Join(dir, "runs", first.ID)
	if _, err := os.Stat(firstDir); err != nil {
		t.Fatalf("run dir missing before eviction: %v", err)
	}

	// The second Start enforces the cap synchronously and evicts the first
	// (terminal) session.
	second := postRun(t, ts1, persistReq)
	if _, ok := m1.Get(first.ID); ok {
		t.Fatal("first session not evicted by cap")
	}
	if _, err := os.Stat(firstDir); !os.IsNotExist(err) {
		t.Fatalf("evicted session's run dir still on disk (err=%v)", err)
	}
	waitTerminal(t, ts1, second.ID)
	ts1.Close()
	shutdownManager(t, m1)

	m2 := NewManagerConfig(cfg, testProblem("toy", 0))
	defer shutdownManager(t, m2)
	if _, ok := m2.Get(first.ID); ok {
		t.Error("evicted session resurrected after restart")
	}
	if _, ok := m2.Get(second.ID); !ok {
		t.Error("retained session lost after restart")
	}
}

// A session is terminal, and so evictable, while its record is still being
// written. Eviction must wait for that write: a directory unlinked amid it
// keeps the result.json renamed in after RemoveAll listed it, which every
// restart then skips as a run without meta.json and never removes.
func TestPersistEvictionWaitsForTerminalWrite(t *testing.T) {
	dir := t.TempDir()
	st := newStore(dir)
	s := storeSession(1)
	runDir := filepath.Join(dir, "runs", s.id)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meta.json", "journal.jsonl"} {
		if err := os.WriteFile(filepath.Join(runDir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s.disk.Lock() // as Manager.run holds it from the terminal state to result.json
	s.settle(&storedResult{Status: RunStatus{ID: s.id, State: StateDone}, Finished: time.Now()})
	st.Put(s)
	evicted := make(chan bool)
	go func() { evicted <- st.Delete(s.id) }()
	select {
	case <-evicted:
		t.Fatal("eviction returned while the session's terminal write held its lock")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := os.Stat(filepath.Join(runDir, "meta.json")); err != nil {
		t.Fatalf("run directory unlinked amid its terminal write: %v", err)
	}
	if err := journal.WriteJSONAtomic(filepath.Join(runDir, "result.json"), s.record); err != nil {
		t.Fatal(err)
	}
	s.disk.Unlock()
	if !<-evicted {
		t.Fatal("eviction missed the session")
	}
	if _, err := os.Stat(runDir); !os.IsNotExist(err) {
		left, _ := os.ReadDir(runDir)
		t.Fatalf("evicted run directory still on disk (err=%v): %v", err, left)
	}
}

// finishedRuns runs n requests to completion on a durable manager over dir,
// shuts it down, and returns their ids: the disk state the hostile-input
// tests below tamper with.
func finishedRuns(t *testing.T, dir string, n int) []string {
	t.Helper()
	m := NewManagerConfig(Config{DataDir: dir}, testProblem("toy", 0))
	ids := make([]string, n)
	for i := range ids {
		st, err := m.Start(persistReq)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitManagerTerminal(t, m, st.ID); final.State != StateDone {
			t.Fatalf("run %s = %s (%s)", st.ID, final.State, final.Error)
		}
		ids[i] = st.ID
	}
	shutdownManager(t, m)
	return ids
}

// A result.json whose state is not a terminal one must not restore a
// session that can never end — never evicted, counted as running, its
// /events stream open forever. It is an unreadable result: the run comes
// back failed and its directory stays.
func TestPersistRestoreRejectsNonTerminalStoredState(t *testing.T) {
	for _, state := range []State{StateRunning, StateQueued, StateRecovering, "", "finished"} {
		t.Run(string(state), func(t *testing.T) {
			dir := t.TempDir()
			id := finishedRuns(t, dir, 1)[0]
			path := filepath.Join(dir, "runs", id, "result.json")
			var rec storedResult
			if err := journal.ReadJSON(path, &rec); err != nil {
				t.Fatal(err)
			}
			rec.Status.State = state
			if err := journal.WriteJSONAtomic(path, &rec); err != nil {
				t.Fatal(err)
			}

			m := NewManagerConfig(Config{DataDir: dir, Resume: true}, testProblem("toy", 0))
			defer shutdownManager(t, m)
			s, ok := m.Get(id)
			if !ok {
				t.Fatal("run gone after restart")
			}
			if st := s.status(); st.State != StateFailed || !strings.Contains(st.Error, "not terminal") {
				t.Errorf("restored as %s (%q), want failed over the stored state", st.State, st.Error)
			}
			if _, _, terminal := s.eventsSince(0); !terminal {
				t.Error("the restored session's event stream would never end")
			}
			if st := m.Stats(); st.Terminal != 1 || st.Running != 0 || st.Queued != 0 {
				t.Errorf("stats count it as %d terminal / %d running / %d queued", st.Terminal, st.Running, st.Queued)
			}
			if !runDirExists(t, dir, id) {
				t.Error("run directory removed")
			}
		})
	}
}

// A run directory is restored under its own name only. One whose meta.json
// names another run would shadow that run in the store, and evicting it
// would unlink the other's directory.
func TestPersistRestoreSkipsMismatchedMeta(t *testing.T) {
	dir := t.TempDir()
	ids := finishedRuns(t, dir, 2)
	impostor, victim := ids[0], ids[1]
	meta, err := os.ReadFile(filepath.Join(dir, "runs", victim, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "runs", impostor, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	// Without a result.json the impostor reads as an interrupted run: built
	// from its meta.json it would replace the victim's done record.
	if err := os.Remove(filepath.Join(dir, "runs", impostor, "result.json")); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf) // the restore pass logs the skip to the process logger
	cfg := Config{DataDir: dir, MaxSessions: 1, janitorInterval: time.Hour}
	m := NewManagerConfig(cfg, testProblem("toy", 0))
	log.SetOutput(prev)
	logged := strings.FieldsFunc(buf.String(), func(r rune) bool { return r == '\n' })
	defer shutdownManager(t, m)
	if _, ok := m.Get(impostor); ok {
		t.Errorf("%s restored from a meta.json that names %s", impostor, victim)
	}
	s, ok := m.Get(victim)
	if !ok {
		t.Fatalf("%s lost", victim)
	}
	if st := s.status(); st.State != StateDone {
		t.Errorf("%s restored as %s (%q), want its own done record", victim, st.State, st.Error)
	}
	if n := len(m.Statuses()); n != 1 {
		t.Errorf("%d sessions restored, want 1", n)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], impostor) || !strings.Contains(logged[0], victim) {
		t.Errorf("skip not logged with both names: %q", logged)
	}
	// Evicting the victim unlinks its own directory and nothing else.
	if !m.store.Delete(victim) {
		t.Fatal("delete missed")
	}
	if runDirExists(t, dir, victim) || !runDirExists(t, dir, impostor) {
		t.Errorf("after evicting %s: its directory exists = %v, %s's = %v", victim,
			runDirExists(t, dir, victim), impostor, runDirExists(t, dir, impostor))
	}
}

// A user DELETE persists as terminal: the cancelled run must not restart
// as running (or recovering) after a daemon restart.
func TestPersistUserCancelStaysCancelled(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Resume: true}

	m1 := NewManagerConfig(cfg, testProblem("toy", 3*time.Millisecond))
	ts1 := httptest.NewServer(m1.Handler())
	st := postRun(t, ts1, persistReq)
	if _, ok := m1.Cancel(st.ID); !ok {
		t.Fatal("cancel missed")
	}
	if got := waitTerminal(t, ts1, st.ID); got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
	ts1.Close()
	shutdownManager(t, m1)

	m2 := NewManagerConfig(cfg, testProblem("toy", 0))
	defer shutdownManager(t, m2)
	s, ok := m2.Get(st.ID)
	if !ok {
		t.Fatal("cancelled run gone after restart")
	}
	if got := s.status(); got.State != StateCancelled {
		t.Errorf("state after restart = %s, want cancelled (no zombie resurrection)", got.State)
	}
}

// Starting without Resume restores interrupted runs as failed — with an
// error telling the operator how to continue them — and leaves their
// directories intact so a later Resume restart still can.
func TestPersistInterruptedWithoutResume(t *testing.T) {
	dir := t.TempDir()
	id := interruptRun(t, dir)

	m2 := NewManagerConfig(Config{DataDir: dir}, testProblem("toy", 0))
	s, ok := m2.Get(id)
	if !ok {
		t.Fatal("interrupted run gone after restart")
	}
	got := s.status()
	if got.State != StateFailed || !strings.Contains(got.Error, "-resume") {
		t.Fatalf("status = %s (%q), want failed with -resume hint", got.State, got.Error)
	}
	shutdownManager(t, m2)
	if _, err := os.Stat(filepath.Join(dir, "runs", id, "journal.jsonl")); err != nil {
		t.Fatalf("journal deleted by no-resume restart: %v", err)
	}

	// Third start, with Resume: the run completes after all.
	m3 := NewManagerConfig(Config{DataDir: dir, Resume: true}, testProblem("toy", 0))
	defer shutdownManager(t, m3)
	if final := waitManagerTerminal(t, m3, id); final.State != StateDone {
		t.Fatalf("resumed run: %s (%s)", final.State, final.Error)
	}
}

// interruptRun leaves in dir what a daemon stopped after a run's bootstrap
// batch leaves: the run's directory without a result. It returns the id.
func interruptRun(t *testing.T, dir string) string {
	t.Helper()
	m := NewManagerConfig(Config{DataDir: dir}, testProblem("toy", 3*time.Millisecond))
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	st := postRun(t, ts, persistReq)
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, st.ID).Samples < persistReq.RandomSamples {
		if time.Now().After(deadline) {
			t.Fatal("bootstrap never journaled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	shutdownManager(t, m)
	return st.ID
}

// A run restored failed so that a later -resume restart can continue it —
// interrupted under a daemon started without Resume, or refused by a resume
// that cannot run it yet — keeps its directory when TTL eviction drops it.
func TestPersistEvictionKeepsInterruptedRun(t *testing.T) {
	dir := t.TempDir()
	id := interruptRun(t, dir)
	journalPath := filepath.Join(dir, "runs", id, "journal.jsonl")
	evictAfterRestart := func(cfg Config, p Problem) {
		t.Helper()
		cfg.DataDir, cfg.SessionTTL, cfg.janitorInterval = dir, 50*time.Millisecond, 10*time.Millisecond
		m := NewManagerConfig(cfg, p)
		defer shutdownManager(t, m)
		if final := waitManagerTerminal(t, m, id); final.State != StateFailed {
			t.Fatalf("restored as %s (%q), want failed", final.State, final.Error)
		}
		for deadline := time.Now().Add(30 * time.Second); m.Stats().EvictedTTL != 1; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the failed run was never evicted")
			}
		}
		if _, err := os.Stat(journalPath); err != nil {
			t.Fatalf("evicting the failed run deleted its journal: %v", err)
		}
	}
	evictAfterRestart(Config{}, testProblem("toy", 0))
	evictAfterRestart(Config{Resume: true}, testProblem("other", 0)) // no "toy" to resume it with

	m := NewManagerConfig(Config{DataDir: dir, Resume: true}, testProblem("toy", 0))
	defer shutdownManager(t, m)
	if final := waitManagerTerminal(t, m, id); final.State != StateDone {
		t.Fatalf("resumed run: %s (%s)", final.State, final.Error)
	}
}

// A run directory the restore scan skips still holds its id: the next run
// is minted past it, and the skipped directory stays as it was.
func TestPersistNewRunSkipsUnreadableRunDir(t *testing.T) {
	dir := t.TempDir()
	skipped := filepath.Join(dir, "runs", "run-000001")
	if err := os.MkdirAll(skipped, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{"meta.json": "{not json", "result.json": `{"status":{"state":"done"}}`}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(skipped, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := NewManagerConfig(Config{DataDir: dir}, testProblem("toy", 0))
	defer shutdownManager(t, m)
	st, err := m.Start(persistReq)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "run-000002" {
		t.Fatalf("first new run is %s, want run-000002", st.ID)
	}
	waitManagerTerminal(t, m, st.ID)
	entries, err := os.ReadDir(skipped)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(files) {
		t.Fatalf("the skipped directory holds %d files, want %d", len(entries), len(files))
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(skipped, name)); err != nil || string(got) != want {
			t.Fatalf("%s of the skipped run = %q (%v), want %q", name, got, err, want)
		}
	}
}

// Resume refuses a journal whose fingerprint does not match the relaunched
// run (here: meta.json tampered to a different seed) instead of silently
// replaying mismatched measurements.
func TestPersistResumeFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	id := interruptRun(t, dir)

	metaPath := filepath.Join(dir, "runs", id, "meta.json")
	var meta runMeta
	if err := journal.ReadJSON(metaPath, &meta); err != nil {
		t.Fatal(err)
	}
	meta.Request.Seed++
	if err := journal.WriteJSONAtomic(metaPath, meta); err != nil {
		t.Fatal(err)
	}

	m2 := NewManagerConfig(Config{DataDir: dir, Resume: true}, testProblem("toy", 0))
	defer shutdownManager(t, m2)
	final := waitManagerTerminal(t, m2, id)
	if final.State != StateFailed || !strings.Contains(final.Error, "fingerprint") {
		t.Fatalf("status = %s (%q), want failed with fingerprint refusal", final.State, final.Error)
	}
}

// While a resumed run is replaying, /readyz answers 503; once it reaches
// live measurement, 200. The evaluator gate makes the window deterministic.
func TestPersistReadyzDuringRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Resume: true}

	// gate, when set, blocks every evaluation until released.
	var gate atomic.Pointer[chan struct{}]
	problem := testProblem("toy", 0)
	inner := problem.Eval
	problem.Eval = core.EvaluatorFunc(func(cfg param.Config) []float64 {
		if ch := gate.Load(); ch != nil {
			<-*ch
		}
		return inner.Evaluate(cfg)
	})

	m1 := NewManagerConfig(cfg, problem)
	ts1 := httptest.NewServer(m1.Handler())
	if getReadyz(t, ts1) != http.StatusOK {
		t.Fatal("fresh daemon not ready")
	}
	st := postRun(t, ts1, persistReq)
	if final := waitManagerTerminal(t, m1, st.ID); final.State != StateDone {
		t.Fatalf("reference run: %s (%s)", final.State, final.Error)
	}
	ts1.Close()
	shutdownManager(t, m1)

	// Rewind the run to mid-exploration: drop the result and cut the
	// journal back to the bootstrap batch, exactly what a crash right
	// after the random phase leaves behind. Resume must then measure live
	// batches, which the gate holds closed — so the recovery window stays
	// open for as long as this test wants to observe it.
	truncateToFirstBatch(t, cfg, st.ID)
	ch := make(chan struct{})
	gate.Store(&ch)
	m2 := NewManagerConfig(cfg, problem)
	ts2 := httptest.NewServer(m2.Handler())
	defer ts2.Close()
	defer shutdownManager(t, m2)

	if code := getReadyz(t, ts2); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during recovery = %d, want 503", code)
	}
	if m2.Stats().Recovering != 1 {
		t.Errorf("stats recovering = %d, want 1", m2.Stats().Recovering)
	}
	s, ok := m2.Get(st.ID)
	if !ok {
		t.Fatal("recovering run not visible")
	}
	if got := s.status().State; got != StateRecovering {
		t.Errorf("state during recovery = %s, want recovering", got)
	}

	close(ch)
	gate.Store(nil)
	readyDeadline := time.Now().Add(60 * time.Second)
	for getReadyz(t, ts2) != http.StatusOK {
		if time.Now().After(readyDeadline) {
			t.Fatal("daemon never became ready after the gate opened")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final := waitManagerTerminal(t, m2, st.ID); final.State != StateDone {
		t.Fatalf("resumed run: %s (%s)", final.State, final.Error)
	}
}

// truncateToFirstBatch deletes a finished run's result and cuts its
// journal back to the header plus the first batch record, leaving on disk
// what a crash after the bootstrap phase would have left. The spilled
// evaluation cache goes too — it holds the full run's measurements, and a
// restarted daemon would happily serve the "live" batches from it without
// ever touching the evaluator (exactly what production wants, exactly what
// a test gating the evaluator does not).
func truncateToFirstBatch(t *testing.T, cfg Config, id string) {
	t.Helper()
	if err := os.RemoveAll(filepath.Join(cfg.DataDir, "cache")); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(cfg.DataDir, "runs", id)
	if err := os.Remove(filepath.Join(dir, "result.json")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(string(data), "\n") {
		keep = append(keep, line)
		if strings.Contains(line, `"t":"batch"`) {
			break
		}
	}
	if len(keep) < 2 {
		t.Fatalf("journal has no batch record:\n%s", data)
	}
	if err := os.WriteFile(path, []byte(strings.Join(keep, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func getReadyz(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Ready bool `json:"ready"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Ready != (resp.StatusCode == http.StatusOK) {
		t.Fatalf("readyz body %+v inconsistent with code %d", body, resp.StatusCode)
	}
	return resp.StatusCode
}

// A torn trailing journal record (crash mid-append) is truncated and the
// run resumes from the last intact batch — recovery must not crash-loop
// or refuse the journal.
func TestPersistResumeTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Resume: true}

	m1 := NewManagerConfig(cfg, testProblem("toy", 3*time.Millisecond))
	ts1 := httptest.NewServer(m1.Handler())
	st := postRun(t, ts1, persistReq)
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts1, st.ID).Samples < persistReq.RandomSamples {
		if time.Now().After(deadline) {
			t.Fatal("bootstrap never journaled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts1.Close()
	shutdownManager(t, m1)

	jpath := filepath.Join(dir, "runs", st.ID, "journal.jsonl")
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"t":"batch","batch":{"iteration":9,"samples":[{"i":12,"o":[0.1`)
	f.Close()

	m2 := NewManagerConfig(cfg, testProblem("toy", 0))
	defer shutdownManager(t, m2)
	if final := waitManagerTerminal(t, m2, st.ID); final.State != StateDone {
		t.Fatalf("resumed run after torn tail: %s (%s)", final.State, final.Error)
	}
}

// A run that measures an invalid configuration (a NaN objective) is as
// durable as any other: the journal and the cache spill carry the NaN as
// null, the run finishes, and resuming it from the bootstrap batch — which
// holds such nulls — ends on the same front, byte for byte.
func TestPersistNaNObjectiveResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Resume: true}
	problem := testProblem("toy", 0)
	inner := problem.Eval
	problem.Eval = core.EvaluatorFunc(func(cfg param.Config) []float64 {
		objs := inner.Evaluate(cfg)
		if sum := cfg[0] + cfg[1]; sum > 3 && sum <= 4 {
			objs[0] = math.NaN()
		}
		return objs
	})

	m1 := NewManagerConfig(cfg, problem)
	ts1 := httptest.NewServer(m1.Handler())
	st := postRun(t, ts1, persistReq)
	if final := waitTerminal(t, ts1, st.ID); final.State != StateDone {
		t.Fatalf("run with NaN objectives: %s (%s)", final.State, final.Error)
	}
	front := getFrontBytes(t, ts1, st.ID)
	ts1.Close()
	shutdownManager(t, m1)

	jpath := filepath.Join(dir, "runs", st.ID, "journal.jsonl")
	if data, err := os.ReadFile(jpath); err != nil || !strings.Contains(string(data), `"o":[null,`) {
		t.Fatalf("journal carries no null objective (err=%v); the scenario is not exercised", err)
	}
	truncateToFirstBatch(t, cfg, st.ID)

	m2 := NewManagerConfig(cfg, problem)
	ts2 := httptest.NewServer(m2.Handler())
	defer ts2.Close()
	defer shutdownManager(t, m2)
	if final := waitTerminal(t, ts2, st.ID); final.State != StateDone {
		t.Fatalf("resumed run: %s (%s)", final.State, final.Error)
	}
	if got := getFrontBytes(t, ts2, st.ID); got != front {
		t.Errorf("resumed front differs from the uninterrupted one:\n resumed: %s\n original: %s", got, front)
	}
}

// untimedStatus renders what a client reads of a run apart from its
// identity and the per-phase timings of its rounds.
func untimedStatus(t *testing.T, st RunStatus) string {
	t.Helper()
	st.ID, st.Created = "", time.Time{}
	st.Iterations = slices.Clone(st.Iterations)
	for i := range st.Iterations {
		ev := &st.Iterations[i]
		ev.FitMS, ev.EncodeMS, ev.PredictMS, ev.EvalMS = 0, 0, 0, 0
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// A journal whose batch records carry no round object — as every journal
// written before the object existed — resumes by recomputing every round,
// to the front and status of an uninterrupted run; the same journal with
// its round objects fast-forwards its whole rounds to the same bytes. The
// journal is a real interrupted one: a shutdown after the first round.
func TestPersistResumeWithoutRoundsRecomputes(t *testing.T) {
	req := persistReq
	req.Workers = 1
	_, tsRef := newTestServer(t, testProblem("toy", 0))
	refSt := postRun(t, tsRef, req)
	want := waitTerminal(t, tsRef, refSt.ID)
	if want.State != StateDone {
		t.Fatalf("reference run: %s (%s)", want.State, want.Error)
	}
	wantFront := getFrontBytes(t, tsRef, refSt.ID)

	src := t.TempDir()
	m := NewManagerConfig(Config{DataDir: src}, testProblem("toy", 10*time.Millisecond))
	ts := httptest.NewServer(m.Handler())
	st := postRun(t, ts, req)
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, st.ID).Samples < req.RandomSamples+req.MaxBatch {
		if time.Now().After(deadline) {
			t.Fatal("the first round never journaled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts.Close()
	shutdownManager(t, m)
	runDir := filepath.Join(src, "runs", st.ID)
	if _, err := os.Stat(filepath.Join(runDir, "result.json")); !os.IsNotExist(err) {
		t.Fatalf("the run finished before the shutdown (err=%v); the journal is not an interrupted one", err)
	}
	meta, err := os.ReadFile(filepath.Join(runDir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	lines, err := os.ReadFile(filepath.Join(runDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	for _, strip := range []bool{false, true} {
		var out []byte
		rounds := 0
		for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			if b, ok := rec["batch"].(map[string]any); ok && b["round"] != nil {
				rounds++
				if strip {
					delete(b, "round")
				}
			}
			data, _ := json.Marshal(rec)
			out = append(append(out, data...), '\n')
		}
		if rounds == 0 {
			t.Fatal("the journal carries no round object")
		}
		dir := t.TempDir()
		copyDir := filepath.Join(dir, "runs", st.ID)
		if err := os.MkdirAll(copyDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copyDir, "meta.json"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copyDir, "journal.jsonl"), out, 0o644); err != nil {
			t.Fatal(err)
		}

		m2 := NewManagerConfig(Config{DataDir: dir, Resume: true}, testProblem("toy", 0))
		ts2 := httptest.NewServer(m2.Handler())
		got := waitTerminal(t, ts2, st.ID)
		gotFront := getFrontBytes(t, ts2, st.ID)
		ts2.Close()
		shutdownManager(t, m2)
		if gotFront != wantFront {
			t.Errorf("strip=%v: resumed front differs:\n resumed: %s\n reference: %s", strip, gotFront, wantFront)
		}
		if g, w := untimedStatus(t, got), untimedStatus(t, want); g != w {
			t.Errorf("strip=%v: resumed status\n%s\nwant\n%s", strip, g, w)
		}
		forwarded := 0
		for _, ev := range got.Iterations {
			if ev.Iteration > 0 && ev.PredictMS == 0 {
				forwarded++
			}
		}
		if strip && forwarded != 0 {
			t.Errorf("without round objects %d rounds were fast-forwarded, want every round recomputed", forwarded)
		}
		if !strip && forwarded == 0 {
			t.Error("with round objects no journaled round was fast-forwarded")
		}
	}
}
