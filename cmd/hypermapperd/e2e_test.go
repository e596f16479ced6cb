package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
)

// This file is the crash-recovery end-to-end harness: it builds the real
// hypermapperd binary, SIGKILLs it at a randomized point mid-run — no
// graceful shutdown, no flushing, exactly what a power loss or OOM kill
// looks like — restarts it with -resume, and asserts the resumed run
// finishes with a Pareto front byte-identical to an uninterrupted
// reference run of the same seed, with the same round statistics and the
// journal recording the same evaluation sequence.

// e2eReq is the seeded run both daemons execute.
var e2eReq = map[string]any{
	"problem": "synthetic", "seed": 42,
	"random_samples": 25, "max_iterations": 3, "max_batch": 12,
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hypermapperd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building hypermapperd: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// daemon is one running hypermapperd process under test.
type daemon struct {
	cmd *exec.Cmd
	url string
	out *bytes.Buffer
}

func startDaemon(t *testing.T, bin string, extra ...string) *daemon {
	t.Helper()
	addr := freeAddr(t)
	args := append([]string{"-addr", addr, "-dataset", "test", "-session-ttl", "0"}, extra...)
	cmd := exec.Command(bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, out: &out}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() {
			t.Logf("daemon %s output:\n%s", addr, out.String())
		}
	})
	// The daemon is up once /healthz answers.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon on %s never became healthy\n%s", addr, out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// sigkill terminates the daemon the hard way and reaps it.
func (d *daemon) sigkill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// stop shuts the daemon down gracefully (SIGTERM) and waits for exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("signalling daemon: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("daemon did not exit on SIGTERM")
	}
}

func (d *daemon) postRun(t *testing.T, req map[string]any) server.RunStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(d.url+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /runs = %d: %s", resp.StatusCode, data)
	}
	var st server.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func (d *daemon) status(t *testing.T, id string) (server.RunStatus, bool) {
	t.Helper()
	resp, err := http.Get(d.url + "/runs/" + id)
	if err != nil {
		return server.RunStatus{}, false // daemon may be mid-kill
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.RunStatus{}, false
	}
	var st server.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.RunStatus{}, false
	}
	return st, true
}

func (d *daemon) waitDone(t *testing.T, id string) server.RunStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := d.status(t, id); ok && st.State.Terminal() {
			if st.State != server.StateDone {
				t.Fatalf("run %s: %s (%s)", id, st.State, st.Error)
			}
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("run %s never finished\n%s", id, d.out.String())
	return server.RunStatus{}
}

func (d *daemon) front(t *testing.T, id string) string {
	t.Helper()
	resp, err := http.Get(d.url + "/runs/" + id + "/front")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET front = %d: %s", resp.StatusCode, data)
	}
	return string(data)
}

func (d *daemon) waitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("daemon never became ready\n%s", d.out.String())
}

// journalIndices flattens a run journal into its measured design-space
// index sequence, in journal order.
func journalIndices(t *testing.T, dataDir, id string) []int64 {
	t.Helper()
	rec, err := journal.Recover(filepath.Join(dataDir, "runs", id, "journal.jsonl"))
	if err != nil {
		t.Fatalf("recovering journal of %s: %v", id, err)
	}
	var out []int64
	for _, b := range rec.Batches {
		for _, s := range b.Samples {
			out = append(out, s.Index)
		}
	}
	return out
}

// untimedIterations renders a run's GET /runs/{id} iterations without the
// per-phase wall-clock timings, which no two runs share. uncounted drops the
// memo-cache counts too: a configuration the killed daemon spilled but
// never journaled is a hit on its spill.
func untimedIterations(t *testing.T, st server.RunStatus, uncounted bool) string {
	t.Helper()
	its := slices.Clone(st.Iterations)
	for i := range its {
		its[i].FitMS, its[i].EncodeMS, its[i].PredictMS, its[i].EvalMS = 0, 0, 0, 0
		if uncounted {
			its[i].CacheHits, its[i].CacheMisses = 0, 0
		}
	}
	data, err := json.Marshal(its)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestKillResumeByteIdentical is the acceptance test of the durability
// layer: SIGKILL the daemon at a randomized evaluation count, restart with
// -resume, and the run must complete byte-identical to an uninterrupted
// reference — same front JSON, same round statistics, same journaled
// evaluation sequence.
func TestKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemon processes")
	}
	bin := buildDaemon(t)

	// Uninterrupted reference run, journaled for the sequence comparison.
	refDir := t.TempDir()
	ref := startDaemon(t, bin, "-data-dir", refDir)
	refSt := ref.postRun(t, e2eReq)
	refIters := untimedIterations(t, ref.waitDone(t, refSt.ID), true)
	refFront := ref.front(t, refSt.ID)
	ref.stop(t)
	refIdx := journalIndices(t, refDir, refSt.ID)
	if len(refIdx) == 0 {
		t.Fatal("reference journal is empty")
	}

	// The victim: slowed evaluations so the SIGKILL lands mid-run, at a
	// randomized point so repeated CI runs cut at different batches.
	dataDir := t.TempDir()
	victim := startDaemon(t, bin, "-data-dir", dataDir, "-resume", "-eval-delay", "5ms")
	st := victim.postRun(t, e2eReq)
	threshold := 1 + rand.Intn(40)
	t.Logf("killing daemon once >= %d evaluations are journaled", threshold)
	killDeadline := time.Now().Add(120 * time.Second)
	for {
		if cur, ok := victim.status(t, st.ID); ok {
			if cur.State.Terminal() {
				t.Fatalf("run finished before the kill (state %s); raise -eval-delay", cur.State)
			}
			if cur.Samples >= threshold {
				break
			}
		}
		if time.Now().After(killDeadline) {
			t.Fatalf("run never reached %d samples\n%s", threshold, victim.out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.sigkill()

	// Restart over the same data directory: the run must resume and finish
	// identically to the reference.
	revived := startDaemon(t, bin, "-data-dir", dataDir, "-resume")
	revived.waitReady(t)
	final := revived.waitDone(t, st.ID)
	if got := revived.front(t, st.ID); got != refFront {
		t.Errorf("resumed front differs from uninterrupted reference\nresumed:   %s\nreference: %s", got, refFront)
	}
	if final.Samples != len(refIdx) {
		t.Errorf("resumed run measured %d samples, reference %d", final.Samples, len(refIdx))
	}
	if got := untimedIterations(t, final, true); got != refIters {
		t.Errorf("resumed iterations differ from the reference's\nresumed:   %s\nreference: %s", got, refIters)
	}
	gotIdx := journalIndices(t, dataDir, st.ID)
	if len(gotIdx) != len(refIdx) {
		t.Fatalf("journal has %d samples, reference %d", len(gotIdx), len(refIdx))
	}
	for i := range refIdx {
		if gotIdx[i] != refIdx[i] {
			t.Fatalf("journal diverges at sample %d: index %d vs reference %d", i, gotIdx[i], refIdx[i])
		}
	}

	// The restarted daemon must also keep serving the finished run after
	// one more restart — result.json, not the journal, is now the source.
	revived.stop(t)
	third := startDaemon(t, bin, "-data-dir", dataDir, "-resume")
	third.waitReady(t)
	if got := third.front(t, st.ID); got != refFront {
		t.Error("front changed after a post-completion restart")
	}
	third.stop(t)
}

// TestGracefulShutdownResume covers the orderly half: SIGTERM mid-run
// leaves the run resumable, its journal as a crash between two batch
// appends would, and a -resume restart finishes it byte-identical to the
// reference.
func TestGracefulShutdownResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals real daemon processes")
	}
	bin := buildDaemon(t)

	refDir := t.TempDir()
	ref := startDaemon(t, bin, "-data-dir", refDir)
	refSt := ref.postRun(t, e2eReq)
	refDone := ref.waitDone(t, refSt.ID)
	refIters := untimedIterations(t, refDone, false)
	refFront := ref.front(t, refSt.ID)
	ref.stop(t)

	dataDir := t.TempDir()
	victim := startDaemon(t, bin, "-data-dir", dataDir, "-resume", "-eval-delay", "5ms")
	st := victim.postRun(t, e2eReq)
	deadline := time.Now().Add(120 * time.Second)
	for {
		if cur, ok := victim.status(t, st.ID); ok && cur.Samples > 0 && !cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never journaled its bootstrap\n%s", victim.out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.stop(t) // SIGTERM: graceful — cancel the run, resumable, then exit

	revived := startDaemon(t, bin, "-data-dir", dataDir, "-resume")
	revived.waitReady(t)
	final := revived.waitDone(t, st.ID)
	if got := revived.front(t, st.ID); got != refFront {
		t.Errorf("front after graceful-shutdown resume differs\nresumed:   %s\nreference: %s", got, refFront)
	}
	if got := untimedIterations(t, final, false); got != refIters {
		t.Errorf("iterations after graceful-shutdown resume differ\nresumed:   %s\nreference: %s", got, refIters)
	}
	if final.CacheHits != refDone.CacheHits || final.CacheMisses != refDone.CacheMisses {
		t.Errorf("memo-cache counts after graceful-shutdown resume: %d hits, %d misses; reference %d, %d",
			final.CacheHits, final.CacheMisses, refDone.CacheHits, refDone.CacheMisses)
	}
	revived.stop(t)
}

// TestSecondDaemonOnDataDirRefused: while one daemon serves a data
// directory, a second one started on it exits non-zero within 10 s, naming
// the lock file, and the first keeps serving.
func TestSecondDaemonOnDataDirRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real daemon processes")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	first := startDaemon(t, bin, "-data-dir", dataDir)

	second := exec.Command(bin, "-addr", freeAddr(t), "-dataset", "test", "-data-dir", dataDir)
	var stderr bytes.Buffer
	second.Stderr = &stderr
	if err := second.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- second.Wait() }()
	select {
	case err := <-exited:
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("second daemon on %s: exit %v, want a non-zero status", dataDir, err)
		}
	case <-time.After(10 * time.Second):
		second.Process.Kill()
		<-exited
		t.Fatalf("second daemon on %s still running after 10 s", dataDir)
	}
	if lock := filepath.Join(dataDir, "LOCK"); !bytes.Contains(stderr.Bytes(), []byte(lock)) {
		t.Errorf("second daemon's stderr %q does not name %s", stderr.String(), lock)
	}
	resp, err := http.Get(first.url + "/healthz")
	if err != nil {
		t.Fatalf("first daemon stopped answering: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("first daemon /healthz = %d, want 200", resp.StatusCode)
	}
	first.stop(t)
}
