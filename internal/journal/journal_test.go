package journal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testHeader() Header {
	return Header{
		RunID:       "run-000001",
		Problem:     "synthetic",
		Fingerprint: "fp-1",
		Seed:        42,
		Created:     time.Unix(1700000000, 0).UTC(),
	}
}

func writeBatches(t *testing.T, w *Writer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		b := Batch{Iteration: i, Active: i > 0}
		for j := 0; j < 3; j++ {
			b.Samples = append(b.Samples, SampleRecord{
				Index: int64(i*10 + j),
				Objs:  []float64{float64(i), float64(j)},
			})
		}
		if err := w.Batch(b); err != nil {
			t.Fatalf("Batch: %v", err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	writeBatches(t, w, 4)
	if err := w.Checkpoint(Checkpoint{Reason: "shutdown", Samples: 12}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := w.Done(Done{State: "done"}); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec, err := Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	want := testHeader()
	want.Version = Version // stamped by Create
	if rec.Header != want {
		t.Errorf("header = %+v, want %+v", rec.Header, want)
	}
	if len(rec.Batches) != 4 || rec.Samples() != 12 {
		t.Errorf("got %d batches, %d samples; want 4, 12", len(rec.Batches), rec.Samples())
	}
	if len(rec.Checkpoints) != 1 || rec.Checkpoints[0].Reason != "shutdown" {
		t.Errorf("checkpoints = %+v", rec.Checkpoints)
	}
	if rec.Done == nil || rec.Done.State != "done" {
		t.Errorf("done = %+v", rec.Done)
	}
	if rec.TruncatedBytes != 0 {
		t.Errorf("clean journal reported %d truncated bytes", rec.TruncatedBytes)
	}
	replay := rec.Replay()
	if len(replay) != 12 {
		t.Fatalf("replay has %d entries, want 12", len(replay))
	}
	if objs := replay[31]; len(objs) != 2 || objs[0] != 3 || objs[1] != 1 {
		t.Errorf("replay[31] = %v", objs)
	}
}

// A torn trailing record — a crash mid-append — must be truncated away,
// keeping every earlier record, and appending must continue cleanly.
func TestRecoverTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail string
	}{
		{"half record", `{"t":"batch","batch":{"iteration":9,"sam`},
		{"no newline", `{"t":"batch","batch":{"iteration":9,"samples":[]}}`},
		{"binary garbage", "\x00\x7f\xfe garbage"},
		{"corrupt line with newline", "{\"t\":\"batch\",oops}\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			w, err := Create(path, testHeader())
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			writeBatches(t, w, 3)
			w.Close()
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			rec, err := Recover(path)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if len(rec.Batches) != 3 {
				t.Fatalf("recovered %d batches, want 3", len(rec.Batches))
			}
			if rec.TruncatedBytes == 0 {
				t.Error("torn tail not reported")
			}

			// The file must now be clean: append a batch and recover again.
			w2, err := OpenAppendWriter(path)
			if err != nil {
				t.Fatalf("OpenAppendWriter: %v", err)
			}
			if err := w2.Batch(Batch{Iteration: 3}); err != nil {
				t.Fatalf("Batch after recovery: %v", err)
			}
			w2.Close()
			rec2, err := Recover(path)
			if err != nil {
				t.Fatalf("second Recover: %v", err)
			}
			if len(rec2.Batches) != 4 || rec2.TruncatedBytes != 0 {
				t.Errorf("after repair: %d batches, %d truncated; want 4, 0",
					len(rec2.Batches), rec2.TruncatedBytes)
			}
		})
	}
}

// Recovery is idempotent: recovering an already-recovered journal drops
// nothing further.
func TestRecoverIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	w, _ := Create(path, testHeader())
	writeBatches(t, w, 2)
	w.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString(`{"torn`)
	f.Close()
	first, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if second.TruncatedBytes != 0 || len(second.Batches) != len(first.Batches) {
		t.Errorf("second recovery dropped records: %+v", second)
	}
}

func TestRecoverErrors(t *testing.T) {
	dir := t.TempDir()

	// No header at all: unrecoverable, reported as an error (the caller
	// decides what to do with the run, but never replays unknown data).
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(empty); err == nil {
		t.Error("Recover(empty) succeeded, want error")
	}

	// Future format version: refuse rather than misparse.
	future := filepath.Join(dir, "future.jsonl")
	if err := os.WriteFile(future,
		[]byte(`{"t":"header","header":{"version":99,"run_id":"x"}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(future); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("Recover(future) = %v, want version error", err)
	}

	// Missing file: readable as empty lines but an error from Recover
	// (no header).
	if _, err := Recover(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("Recover(missing) succeeded, want error")
	}
}

// Unknown record types must be skipped, not fatal: an older daemon must
// be able to replay a journal a newer one extended (same major version).
func TestRecoverSkipsUnknownRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	w, _ := Create(path, testHeader())
	writeBatches(t, w, 1)
	w.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString(`{"t":"future-metric","payload":{"x":1}}` + "\n")
	f.Close()
	w2, _ := OpenAppendWriter(path)
	writeBatches(t, w2, 1)
	w2.Close()
	rec, err := Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rec.Batches) != 2 {
		t.Errorf("recovered %d batches, want 2", len(rec.Batches))
	}
}

// The writer must be safe for concurrent appends: the engine journals
// batches while a graceful shutdown writes its checkpoint.
func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g%2 == 0 {
					_ = w.Batch(Batch{Iteration: g*100 + i})
				} else {
					_ = w.Checkpoint(Checkpoint{Reason: "tick", Samples: i})
				}
			}
		}(g)
	}
	wg.Wait()
	w.Close()
	rec, err := Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := len(rec.Batches) + len(rec.Checkpoints); got != 100 {
		t.Errorf("recovered %d records, want 100", got)
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.jsonl")
	af, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := af.Close(); err != nil {
		t.Fatal(err)
	}
	if err := af.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := af.Append(map[string]int{"x": 1}); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Append after Close = %v, want os.ErrClosed", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v1")
		return err
	}); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Errorf("content = %q", got)
	}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want -rw-r--r--", fi.Mode())
	}

	// A failing writer must leave the previous content and no temp files.
	boom := errors.New("boom")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half-written")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Errorf("after failed write, content = %q, want v1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("temp files left behind: %v", names)
	}
}

func TestWriteJSONAtomicRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.json")
	in := map[string]any{"a": 1.5, "b": "x"}
	if err := WriteJSONAtomic(path, in); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := ReadJSON(path, &out); err != nil {
		t.Fatal(err)
	}
	if out["a"] != 1.5 || out["b"] != "x" {
		t.Errorf("round trip = %v", out)
	}
	if err := ReadJSON(filepath.Join(t.TempDir(), "missing.json"), &out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("ReadJSON(missing) = %v, want ErrNotExist", err)
	}
}

// Unmeasured indices round-trip through the journal, and Skips counts
// repeat skips of the same index across batches.
func TestUnmeasuredRoundTripAndSkips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	batches := []Batch{
		{Iteration: 0, Samples: []SampleRecord{{Index: 1, Objs: []float64{1}}}, Unmeasured: []int64{7, 9}},
		{Iteration: 1, Active: true, Unmeasured: []int64{7}},
		{Iteration: 2, Active: true, Samples: []SampleRecord{{Index: 2, Objs: []float64{2}}}},
	}
	for _, b := range batches {
		if err := w.Batch(b); err != nil {
			t.Fatalf("Batch: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec, err := Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rec.Batches) != 3 {
		t.Fatalf("recovered %d batches, want 3", len(rec.Batches))
	}
	for i, b := range rec.Batches {
		if len(b.Unmeasured) != len(batches[i].Unmeasured) {
			t.Fatalf("batch %d unmeasured = %v, want %v", i, b.Unmeasured, batches[i].Unmeasured)
		}
	}
	skips := rec.Skips()
	if skips[7] != 2 || skips[9] != 1 || len(skips) != 2 {
		t.Fatalf("Skips() = %v, want {7:2 9:1}", skips)
	}
}

// A journal with no unmeasured entries yields a nil skip map, so resume
// paths can pass it straight through without allocation.
func TestSkipsNilWhenNoneRecorded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	writeBatches(t, w, 2)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec, err := Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Skips() != nil {
		t.Fatalf("Skips() = %v, want nil", rec.Skips())
	}
}
