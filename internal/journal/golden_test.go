package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// goldenRecovered is what testdata/golden.jsonl must recover to: a header,
// the bootstrap batch, a degraded active-learning batch holding an invalid
// measurement (a null objective) and two unmeasured indices, and a done
// marker. Between the last two the file holds the shutdown marker older
// builds wrote, which recovery skips.
func goldenRecovered() *Recovered {
	stamp := time.Date(2024, 3, 9, 12, 0, 0, 0, time.UTC)
	return &Recovered{
		Header: Header{Version: 1, RunID: "run-000042", Problem: "kfusion/odroid", Fingerprint: "objs=2;size=64;seed=7", Seed: 7, Created: stamp},
		Batches: []Batch{
			{Iteration: 0, Samples: []SampleRecord{
				{Index: 3, Objs: []float64{0.25, 41.5}},
				{Index: 60, Objs: []float64{1e-09, 1.0 / 3}},
			}},
			{Iteration: 1, Active: true, Samples: []SampleRecord{
				{Index: 17, Objs: []float64{math.NaN(), 12}},
				{Index: 18, Objs: []float64{0, -2.5e+21}},
			}, Unmeasured: []int64{5, 44}},
		},
		Done: &Done{State: "failed", Error: "core: backend returned 2 results for a 4-configuration batch"},
	}
}

// copyGolden copies a testdata journal into a scratch directory: Recover
// truncates torn tails in place.
func copyGolden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeGolden writes want's records through a fresh Writer and returns the
// file's bytes.
func writeGolden(t *testing.T, want *Recovered) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	w, err := Create(path, want.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range want.Batches {
		if err := w.Batch(b); err != nil {
			t.Fatal(err)
		}
	}
	if want.Done != nil {
		if err := w.Done(*want.Done); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return written
}

// withoutShutdownMarker returns a committed journal without its one
// shutdown-marker line, the record older builds wrote and today's writer
// does not.
func withoutShutdownMarker(t *testing.T, data []byte) []byte {
	t.Helper()
	var out []byte
	markers := 0
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"t":"checkpoint",`)) {
			markers++
			continue
		}
		out = append(out, line...)
	}
	if markers != 1 {
		t.Fatalf("the committed journal holds %d shutdown markers, want 1", markers)
	}
	return out
}

// The committed journal is the on-disk format: today's reader must recover
// it to the fixed value, with or without a torn tail after it, skipping the
// shutdown marker older builds wrote, and today's writer must produce it
// byte for byte but for that marker — so a format drift fails here instead
// of in somebody's resume.
func TestGoldenJournal(t *testing.T) {
	want := goldenRecovered()
	written := writeGolden(t, want)
	for name, torn := range map[string]int64{"golden.jsonl": 0, "golden_torn.jsonl": 76} {
		rec, err := Recover(copyGolden(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.TruncatedBytes != torn {
			t.Errorf("%s: %d bytes truncated, want %d", name, rec.TruncatedBytes, torn)
		}
		rec.TruncatedBytes = 0
		// Compared through JSON: a NaN is not reflect.DeepEqual to itself.
		got, _ := json.Marshal(rec)
		if wantJSON, _ := json.Marshal(want); !bytes.Equal(got, wantJSON) {
			t.Errorf("%s recovered to\n%s\nwant\n%s", name, got, wantJSON)
		}
		if v := rec.Batches[1].Samples[0].Objs[0]; !math.IsNaN(v) {
			t.Errorf("%s: null objective read back as %v, want NaN", name, v)
		}
		golden, _ := os.ReadFile(filepath.Join("testdata", name))
		if intact := withoutShutdownMarker(t, golden[:int64(len(golden))-torn]); !bytes.Equal(written, intact) {
			t.Errorf("the writer produced\n%s\nwant testdata/%s without its tail and shutdown marker\n%s", written, name, intact)
		}
	}
}

// FuzzRecover feeds Recover arbitrary file contents. It must never panic,
// and what it does recover must be a journal appending can continue on:
// every returned batch can be appended again, and the file then recovers
// with nothing left to truncate and every batch read back.
func FuzzRecover(f *testing.F) {
	for _, name := range []string{"golden.jsonl", "golden_torn.jsonl", "golden_rounds.jsonl"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(path)
		if err != nil {
			return
		}
		w, _, err := Reopen(path, rec.Header)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range rec.Batches {
			if err := w.Batch(b); err != nil {
				t.Fatalf("recovered batch %d cannot be appended again: %v", i, err)
			}
		}
		w.Close()
		again, err := Recover(path)
		if err != nil {
			t.Fatalf("recovering the continued journal: %v", err)
		}
		if again.TruncatedBytes != 0 || len(again.Batches) != 2*len(rec.Batches) {
			t.Fatalf("continued journal: %d bytes truncated, %d batches; want 0 and %d",
				again.TruncatedBytes, len(again.Batches), 2*len(rec.Batches))
		}
	})
}

// goldenRoundsRecovered is what testdata/golden_rounds.jsonl must recover
// to: a run journaled with each active-learning round's model decisions — a
// round whose first OOB estimate is undefined (null), a degraded round that
// selected four configurations and measured two, and a round cut short by a
// shutdown, whose record holds fewer samples than it selected. The file ends
// with the shutdown marker older builds wrote, which recovery skips.
func goldenRoundsRecovered() *Recovered {
	stamp := time.Date(2024, 3, 9, 12, 0, 0, 0, time.UTC)
	return &Recovered{
		Header: Header{Version: 1, RunID: "run-000043", Problem: "synthetic", Fingerprint: "objs=2;size=64;seed=9", Seed: 9, Created: stamp},
		Batches: []Batch{
			{Iteration: 0, Samples: []SampleRecord{
				{Index: 3, Objs: []float64{0.25, 41.5}},
				{Index: 60, Objs: []float64{1e-09, 1.0 / 3}},
			}},
			{Iteration: 1, Active: true, Samples: []SampleRecord{
				{Index: 17, Objs: []float64{1.5, 12}},
			}, Round: &Round{Selected: 1, PredictedFrontSize: 6, OOBError: []float64{math.NaN(), 0.125}, OOBSamples: []int{0, 2}}},
			{Iteration: 2, Active: true, Samples: []SampleRecord{
				{Index: 21, Objs: []float64{math.NaN(), 7}},
				{Index: 22, Objs: []float64{0, -2.5e+21}},
			}, Unmeasured: []int64{5, 44}, Round: &Round{Selected: 4, PredictedFrontSize: 9, OOBError: []float64{0.5, 1e-12}, OOBSamples: []int{3, 3}}},
			{Iteration: 3, Active: true, Samples: []SampleRecord{
				{Index: 30, Objs: []float64{2, 2}},
			}, Round: &Round{Selected: 3, PredictedFrontSize: 3, OOBError: []float64{0.75, 0.25}, OOBSamples: []int{4, 5}}},
		},
	}
}

// The round object is part of the on-disk format: the committed journal
// recovers to the fixed value, NaN OOB errors included, and the writer
// produces it byte for byte but for its shutdown marker.
func TestGoldenRoundsJournal(t *testing.T) {
	want := goldenRoundsRecovered()
	rec, err := Recover(copyGolden(t, "golden_rounds.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rec)
	if wantJSON, _ := json.Marshal(want); !bytes.Equal(got, wantJSON) {
		t.Errorf("golden_rounds.jsonl recovered to\n%s\nwant\n%s", got, wantJSON)
	}
	if r := rec.Batches[1].Round; r == nil || !math.IsNaN(r.OOBError[0]) {
		t.Errorf("round 1 recovered as %+v, want a NaN first OOB error", r)
	}

	written := writeGolden(t, want)
	golden, _ := os.ReadFile(filepath.Join("testdata", "golden_rounds.jsonl"))
	if intact := withoutShutdownMarker(t, golden); !bytes.Equal(written, intact) {
		t.Errorf("the writer produced\n%s\nwant testdata/golden_rounds.jsonl without its shutdown marker\n%s", written, intact)
	}
}
