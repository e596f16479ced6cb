package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/par"
	"repro/internal/param"
)

// journalCuts lists the byte lengths a crash is made to leave of a run's
// journal: -1 for no journal file at all, every byte of the header line,
// every record boundary ±2 bytes, and a fixed stride over the rest.
func journalCuts(data []byte) []int {
	header := bytes.IndexByte(data, '\n') + 1
	cuts := []int{-1}
	seen := map[int]bool{-1: true}
	add := func(n int) {
		if n >= 0 && n <= len(data) && !seen[n] {
			seen[n] = true
			cuts = append(cuts, n)
		}
	}
	for n := 0; n <= header; n++ {
		add(n)
	}
	for end := 0; end < len(data); {
		end += bytes.IndexByte(data[end:], '\n') + 1
		for d := -2; d <= 2; d++ {
			add(end + d)
		}
	}
	for n := header; n <= len(data); n += 97 {
		add(n)
	}
	return cuts
}

// journaledSamples counts the measurements in the intact batch records of a
// journal prefix: the lines it holds whole, after a header.
func journaledSamples(prefix []byte) int {
	lines := bytes.Split(prefix[:bytes.LastIndexByte(prefix, '\n')+1], []byte("\n"))
	n := 0
	for i, line := range lines {
		var r struct {
			T     string         `json:"t"`
			Batch *journal.Batch `json:"batch"`
		}
		if i == 0 && (json.Unmarshal(line, &r) != nil || r.T != journal.TypeHeader) {
			return 0
		}
		if i > 0 && json.Unmarshal(line, &r) == nil && r.Batch != nil {
			n += len(r.Batch.Samples)
		}
	}
	return n
}

// crashProblem is the persistence tests' toy problem on a coarser grid,
// whose short fingerprint keeps the journal's header line, each byte of
// which is a cut, short; its evaluator counts its calls.
func crashProblem(calls *atomic.Int64) Problem {
	problem := testProblem("toy", 0)
	problem.Space = param.MustSpace(param.Grid("a", 0, 4, 9), param.Grid("b", 0, 4, 9))
	inner := problem.Eval
	problem.Eval = core.EvaluatorFunc(func(cfg param.Config) []float64 {
		calls.Add(1)
		return inner.Evaluate(cfg)
	})
	return problem
}

// crashReference runs persistReq to completion on a durable manager over
// crashProblem: the run every crash test resumes against. It returns the
// run's directory and id, its result and its evaluator calls.
func crashReference(t *testing.T) (runDir, id string, want storedResult, calls int) {
	t.Helper()
	var n atomic.Int64
	src := t.TempDir()
	m := NewManagerConfig(Config{DataDir: src}, crashProblem(&n))
	st, err := m.Start(persistReq)
	if err != nil {
		t.Fatal(err)
	}
	waitManagerTerminal(t, m, st.ID)
	shutdownManager(t, m)
	runDir = filepath.Join(src, "runs", st.ID)
	if want, err = readResult(runDir); err != nil || want.Status.State != StateDone {
		t.Fatalf("reference run: %+v, %v", want.Status, err)
	}
	return runDir, st.ID, want, int(n.Load())
}

// cutResult is how a run resumed from one journal cut ended.
type cutResult struct {
	res              storedResult
	calls, journaled int
	err              error
}

// resumeCut gives an interrupted run's directory under base — meta, no
// result, no cache spill — the first cut bytes of data as its journal (no
// journal file when cut is -1), resumes it in a fresh manager and returns
// how the run ended.
func resumeCut(base, id string, meta, data []byte, cut int) cutResult {
	dir := filepath.Join(base, strconv.Itoa(cut))
	defer os.RemoveAll(dir)
	runDir := filepath.Join(dir, "runs", id)
	var r cutResult
	if r.err = os.MkdirAll(runDir, 0o755); r.err != nil {
		return r
	}
	if r.err = os.WriteFile(filepath.Join(runDir, "meta.json"), meta, 0o644); r.err != nil {
		return r
	}
	if cut >= 0 {
		if r.err = os.WriteFile(filepath.Join(runDir, "journal.jsonl"), data[:cut], 0o644); r.err != nil {
			return r
		}
		r.journaled = journaledSamples(data[:cut])
	}
	var calls atomic.Int64
	m := NewManagerConfig(Config{DataDir: dir, Resume: true}, crashProblem(&calls))
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		if s, ok := m.Get(id); ok && s.status().State.Terminal() {
			if st := s.status(); st.State != StateDone {
				r.err = fmt.Errorf("%s (%s)", st.State, st.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			r.err = fmt.Errorf("run %s did not reach a terminal state", id)
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil && r.err == nil {
		r.err = err
	}
	r.calls = int(calls.Load())
	if r.err == nil {
		r.res, r.err = readResult(runDir)
	}
	return r
}

// A crash can cut a run's journal at any byte, or come before the journal
// file exists. A real run is journaled to the end; then an interrupted
// run's directory takes each cut of that journal (journalCuts) and is
// resumed (resumeCut). Every cut must end done with the reference front,
// byte for byte, and the reference status, timings aside and memo-cache
// counts included, and must call the evaluator exactly once per
// measurement the cut lost: nothing lost, nothing measured twice. A cut
// inside the header line resumes as a run that measured nothing.
func TestPersistCrashCuts(t *testing.T) {
	runDir, id, want, total := crashReference(t)
	wantStatus, wantFront := untimedStatus(t, want.Status), frontJSON(t, want.Front)
	meta, err := os.ReadFile(filepath.Join(runDir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(runDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	// Cuts are independent, so a few resume at once: a resume waits on
	// fsyncs as much as on the CPU.
	base := t.TempDir()
	cuts := journalCuts(data)
	results := make([]cutResult, len(cuts))
	par.ForWorkers(len(cuts), 4, func(i int) { results[i] = resumeCut(base, id, meta, data, cuts[i]) })
	bad := 0
	for i, r := range results {
		var problem string
		switch {
		case r.err != nil:
			problem = r.err.Error()
		case untimedStatus(t, r.res.Status) != wantStatus:
			problem = fmt.Sprintf("resumed status\n%s\nwant\n%s", untimedStatus(t, r.res.Status), wantStatus)
		case frontJSON(t, r.res.Front) != wantFront:
			problem = fmt.Sprintf("resumed front\n%s\nwant\n%s", frontJSON(t, r.res.Front), wantFront)
		case r.calls != total-r.journaled:
			problem = fmt.Sprintf("%d evaluator calls, want %d (%d measured, %d journaled)",
				r.calls, total-r.journaled, total, r.journaled)
		default:
			continue
		}
		if bad++; bad <= 5 {
			t.Errorf("cut at byte %d: %s", cuts[i], problem)
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d cuts of a %d-byte journal failed", bad, len(cuts), len(data))
	}
	t.Logf("%d cuts of a %d-byte journal (header line %d bytes), %d measurements", len(cuts), len(data), bytes.IndexByte(data, '\n')+1, total)
}

// Older builds appended a shutdown marker, a "checkpoint" record, to every
// live run's journal on a graceful shutdown. Such a journal must still
// resume: the reader skips the marker, the run ends done with the reference
// front and status, timings aside, and the evaluator is called exactly once
// per measurement the journal lacks.
func TestGracefulShutdownResumeFromOlderJournal(t *testing.T) {
	runDir, id, want, total := crashReference(t)
	meta, err := os.ReadFile(filepath.Join(runDir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(runDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	// The header, the bootstrap and the first round, then the marker as
	// older builds wrote it.
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("reference journal has %d lines, want a header, two batches and more", len(lines))
	}
	interrupted := bytes.Join(lines[:3], nil)
	journaled := journaledSamples(interrupted)
	interrupted = fmt.Appendf(interrupted, `{"t":"checkpoint","checkpoint":{"reason":"shutdown","samples":%d,"time":"2024-03-09T12:01:30Z"}}`+"\n", journaled)

	r := resumeCut(t.TempDir(), id, meta, interrupted, len(interrupted))
	switch {
	case r.err != nil:
		t.Fatal(r.err)
	case r.journaled != journaled || journaled >= total:
		t.Fatalf("%d measurements journaled before the marker, want %d of %d", r.journaled, journaled, total)
	case untimedStatus(t, r.res.Status) != untimedStatus(t, want.Status):
		t.Errorf("resumed status\n%s\nwant\n%s", untimedStatus(t, r.res.Status), untimedStatus(t, want.Status))
	case frontJSON(t, r.res.Front) != frontJSON(t, want.Front):
		t.Errorf("resumed front\n%s\nwant\n%s", frontJSON(t, r.res.Front), frontJSON(t, want.Front))
	case r.calls != total-journaled:
		t.Errorf("%d evaluator calls, want %d (%d measured, %d journaled)", r.calls, total-journaled, total, journaled)
	}
}

// A crash can come on either side of the rename of meta.json or of
// result.json. Each of the four cuts is an interrupted run's directory, made
// from a reference run's files and restarted with Resume set:
//   - before meta.json's rename, only a partial temp file exists: the run is
//     skipped, and its id is not minted again;
//   - after meta.json's rename, before the journal: the run resumes as one
//     that measured nothing;
//   - before result.json's rename, the journal ends with its done marker
//     beside a partial temp file: the run resumes to the reference, with no
//     evaluator call;
//   - after result.json's rename: the run is restored terminal, not resumed,
//     and its journal is left as it was.
//
// Every run ends done with the reference front and status, timings aside,
// and the restore pass leaves no temp file behind.
func TestCrashCutsMetaAndResult(t *testing.T) {
	runDir, id, want, total := crashReference(t)
	files := map[string][]byte{}
	for _, name := range []string{"meta.json", "journal.jsonl", "result.json"} {
		var err error
		if files[name], err = os.ReadFile(filepath.Join(runDir, name)); err != nil {
			t.Fatal(err)
		}
	}
	half := func(name string) []byte { return files[name][:len(files[name])/2] }
	cuts := []struct {
		name  string
		files map[string][]byte
		calls int // evaluator calls the restart makes
	}{
		{"meta.json before rename", map[string][]byte{".meta.json.tmp-1": half("meta.json")}, -1},
		{"meta.json after rename", map[string][]byte{"meta.json": files["meta.json"]}, total},
		{"result.json before rename", map[string][]byte{"meta.json": files["meta.json"],
			"journal.jsonl": files["journal.jsonl"], ".result.json.tmp-1": half("result.json")}, 0},
		{"result.json after rename", files, 0},
	}
	for _, cut := range cuts {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			cutDir := filepath.Join(dir, "runs", id)
			if err := os.MkdirAll(cutDir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range cut.files {
				if err := os.WriteFile(filepath.Join(cutDir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var calls atomic.Int64
			m := NewManagerConfig(Config{DataDir: dir, Resume: true}, crashProblem(&calls))
			if temps, _ := filepath.Glob(filepath.Join(cutDir, ".*.tmp-*")); len(temps) > 0 {
				t.Errorf("the restore pass left %v", temps)
			}
			if cut.calls < 0 {
				if _, ok := m.Get(id); ok {
					t.Error("a run with no meta.json was restored")
				}
				next, err := m.Start(persistReq)
				if err != nil {
					t.Fatal(err)
				}
				if next.ID == id {
					t.Errorf("a new run took the id %s of the skipped directory", id)
				}
				waitManagerTerminal(t, m, next.ID)
				shutdownManager(t, m)
				return
			}
			status := waitManagerTerminal(t, m, id)
			shutdownManager(t, m)
			got, err := readResult(cutDir)
			switch {
			case err != nil:
				t.Fatal(err)
			case untimedStatus(t, status) != untimedStatus(t, want.Status):
				t.Errorf("status\n%s\nwant\n%s", untimedStatus(t, status), untimedStatus(t, want.Status))
			case frontJSON(t, got.Front) != frontJSON(t, want.Front):
				t.Errorf("front\n%s\nwant\n%s", frontJSON(t, got.Front), frontJSON(t, want.Front))
			case int(calls.Load()) != cut.calls:
				t.Errorf("%d evaluator calls, want %d", calls.Load(), cut.calls)
			}
			if _, restored := cut.files["result.json"]; restored {
				if journal, err := os.ReadFile(filepath.Join(cutDir, "journal.jsonl")); err != nil || !bytes.Equal(journal, files["journal.jsonl"]) {
					t.Errorf("a terminal run's journal changed on restart (%v): it was resumed", err)
				}
			}
		})
	}
}

// readResult reads a finished run's result.json.
func readResult(runDir string) (storedResult, error) {
	var rec storedResult
	err := journal.ReadJSON(filepath.Join(runDir, "result.json"), &rec)
	return rec, err
}

func frontJSON(t *testing.T, f *core.StoredFront) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
