// Package journal is the durability layer of the daemon: an append-only,
// fsync'd JSON-lines evaluation journal per run, a torn-tail-tolerant
// reader that makes crash recovery total (a half-written trailing record
// is truncated and appending continues — recovery never crash-loops), and
// the temp-file+rename atomic-write helper every other persisted artifact
// in the repository goes through.
//
// A journal file is one record per line:
//
//	{"t":"header","header":{...}}     exactly once, first line
//	{"t":"batch","batch":{...}}       one per measured evaluation batch
//	{"t":"checkpoint","checkpoint":…} clean-shutdown markers
//	{"t":"done","done":{...}}         terminal-state marker, at most once
//
// Every record is written with a single write(2) call and fsync'd before
// the append returns, so after a crash the file is a strict prefix of the
// record sequence plus at most one torn tail. Measured objectives are the
// expensive thing in this system — seconds to minutes of real compute per
// configuration — and the journal is what makes them survive a SIGKILL.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/nanjson"
)

// Record types, the "t" discriminator of each journal line.
const (
	TypeHeader     = "header"
	TypeBatch      = "batch"
	TypeCheckpoint = "checkpoint"
	TypeDone       = "done"
)

// Version is the journal format version written into new headers. Readers
// reject newer versions rather than misparse them.
const Version = 1

// Header identifies the run a journal belongs to. Fingerprint is the
// run's deterministic identity (design-space grid, seed, and every budget
// that shapes the sample sequence); resume refuses a journal whose
// fingerprint does not match the relaunched run, because replaying one
// run's measurements into a differently-shaped run would silently corrupt
// it.
type Header struct {
	Version     int       `json:"version"`
	RunID       string    `json:"run_id"`
	Problem     string    `json:"problem"`
	Fingerprint string    `json:"fingerprint"`
	Seed        int64     `json:"seed"`
	Created     time.Time `json:"created"`
}

// SampleRecord is the one on-disk record of a measurement — a line of the
// memo-cache spill, an entry of a journal batch: its design-space index
// and objective vector. The configuration values are not stored — the
// index decodes deterministically against the space, and the header
// fingerprint pins the space. A non-finite objective (an invalid
// configuration, see core.Result.Invalid) is written as null and read back
// as NaN; an all-finite record is plain encoding/json, to the byte.
type SampleRecord struct {
	Index int64          `json:"i"`
	Objs  nanjson.Vector `json:"o"`
}

// Batch is one completed evaluation batch: the bootstrap (iteration 0) or
// the measured part of an active-learning round. A batch record is only
// appended after its measurements finished, so a journal never contains a
// promise of work — only completed, replayable measurements, plus the
// indices the engine deliberately tolerated away unmeasured (graceful
// degradation under MaxUnmeasuredFraction). An interrupted batch's missing
// tail is never recorded as unmeasured: absence means "re-measure on
// resume", an Unmeasured entry means "skip again, exactly as the original
// run did".
type Batch struct {
	Iteration int            `json:"iteration"`
	Active    bool           `json:"active,omitempty"`
	Samples   []SampleRecord `json:"samples"`
	// Unmeasured lists design-space indices this batch skipped without a
	// measurement, in batch order.
	Unmeasured []int64 `json:"unmeasured,omitempty"`
	// Round, on an active-learning batch, is what the round's model work
	// decided, so a resumed run can take the round as journaled instead of
	// refitting and re-predicting to pick the same batch. Absent on the
	// bootstrap and in journals written before it existed; a reader that
	// ignores it resumes by recomputing the round.
	Round *Round `json:"round,omitempty"`
}

// Round is the model side of one active-learning round: how many
// configurations it selected (len of the batch it asked for, measured or
// not), the predicted front's size, and the per-objective out-of-bag
// statistics of the forests it fit.
type Round struct {
	Selected           int            `json:"selected"`
	PredictedFrontSize int            `json:"predicted_front_size"`
	OOBError           nanjson.Vector `json:"oob_error"`
	OOBSamples         []int          `json:"oob_samples"`
}

// Checkpoint marks an orderly event mid-run — today, a graceful daemon
// shutdown that is about to cancel the run while leaving it resumable.
type Checkpoint struct {
	Reason  string    `json:"reason"`
	Samples int       `json:"samples"` // evaluations journaled so far
	Time    time.Time `json:"time"`
}

// Done marks the run terminal. A journal with a done record is never
// resumed: the run finished (its result artifact is persisted separately)
// or was deliberately cancelled, and restarting it would resurrect work
// its owner ended.
type Done struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// record is the on-disk envelope of every journal line.
type record struct {
	T          string      `json:"t"`
	Header     *Header     `json:"header,omitempty"`
	Batch      *Batch      `json:"batch,omitempty"`
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
	Done       *Done       `json:"done,omitempty"`
}

// AppendFile is a concurrency-safe fsync'd JSON-lines appender: each
// Append writes its values as one JSON line each, in a single write call,
// and syncs the file before returning, so concurrent appenders never
// interleave records and a crash at any instant leaves at most one torn
// trailing line.
type AppendFile struct {
	mu sync.Mutex
	f  *os.File
}

// OpenAppend opens (creating if needed) path for durable line appends.
func OpenAppend(path string) (*AppendFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &AppendFile{f: f}, nil
}

// Append durably writes each value as its own JSON line, with one write
// call and one sync for the whole group — so a single evaluation batch's
// many records cost one fsync.
func (a *AppendFile) Append(vs ...any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // Encode appends the newline per value
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return os.ErrClosed
	}
	if _, err := a.f.Write(buf.Bytes()); err != nil {
		return err
	}
	return a.f.Sync()
}

// Close closes the underlying file; further appends fail.
func (a *AppendFile) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}

// ReadLines parses every intact JSON line of path through fn, stopping at
// the first malformed line (a torn tail from a crash mid-append). It
// returns the byte offset of the end of the last intact line — the length
// the file should be truncated to before appending resumes — and whether
// a malformed tail was found. A missing file reads as empty.
func ReadLines(path string, fn func(line []byte) error) (intact int64, torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A final line without its newline is by definition torn: the
			// newline is part of the record's single durable write.
			return intact, len(line) > 0, nil
		}
		if err != nil {
			return intact, false, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 && !json.Valid(trimmed) {
			return intact, true, nil
		}
		if len(trimmed) > 0 {
			if err := fn(trimmed); err != nil {
				return intact, false, err
			}
		}
		intact += int64(len(line))
	}
}

// Writer appends records to one run's journal.
type Writer struct {
	af *AppendFile
}

// Create starts a fresh journal at path, truncating any previous content,
// and durably writes the header as its first record.
func Create(path string, h Header) (*Writer, error) {
	if h.Version == 0 {
		h.Version = Version
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{af: &AppendFile{f: f}}
	if err := w.af.Append(record{T: TypeHeader, Header: &h}); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// OpenAppendWriter opens an existing journal for appending — the resume
// path, after Recover has truncated any torn tail. The header is not
// rewritten.
func OpenAppendWriter(path string) (*Writer, error) {
	af, err := OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &Writer{af: af}, nil
}

// Batch durably appends one completed evaluation batch.
func (w *Writer) Batch(b Batch) error {
	return w.af.Append(record{T: TypeBatch, Batch: &b})
}

// Checkpoint durably appends a checkpoint marker.
func (w *Writer) Checkpoint(c Checkpoint) error {
	return w.af.Append(record{T: TypeCheckpoint, Checkpoint: &c})
}

// Done durably appends the terminal-state marker.
func (w *Writer) Done(d Done) error {
	return w.af.Append(record{T: TypeDone, Done: &d})
}

// Close closes the journal file.
func (w *Writer) Close() error { return w.af.Close() }

// Recovered is the replayable content of one journal file.
type Recovered struct {
	Header      Header
	Batches     []Batch
	Checkpoints []Checkpoint
	// Done is non-nil when the run reached a terminal state before the
	// journal stopped; such a journal must not be resumed.
	Done *Done
	// TruncatedBytes counts the torn tail dropped during recovery (0 for
	// a cleanly closed journal).
	TruncatedBytes int64
}

// Samples counts the measured evaluations across all batches.
func (r *Recovered) Samples() int {
	n := 0
	for _, b := range r.Batches {
		n += len(b.Samples)
	}
	return n
}

// Replay flattens the journal into the design-space-index → objectives
// map the engine's resume path consumes.
func (r *Recovered) Replay() map[int64][]float64 {
	m := make(map[int64][]float64, r.Samples())
	for _, b := range r.Batches {
		for _, s := range b.Samples {
			m[s.Index] = s.Objs
		}
	}
	return m
}

// Recover reads a run journal, tolerating a torn or corrupt trailing
// record: everything after the last intact record is dropped and the file
// is truncated in place so appending can resume cleanly. Only a journal
// whose header is unreadable (or from a future format version) is an
// error — anything less is recovered from, never crash-looped on.
func Recover(path string) (*Recovered, error) {
	rec := &Recovered{}
	sawHeader := false
	intact, torn, err := ReadLines(path, func(line []byte) error {
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			// json.Valid passed, so this is a schema mismatch, not a torn
			// write; treat the record as opaque (forward compatibility).
			return nil
		}
		switch r.T {
		case TypeHeader:
			if r.Header != nil && !sawHeader {
				rec.Header = *r.Header
				sawHeader = true
			}
		case TypeBatch:
			if r.Batch != nil {
				rec.Batches = append(rec.Batches, *r.Batch)
			}
		case TypeCheckpoint:
			if r.Checkpoint != nil {
				rec.Checkpoints = append(rec.Checkpoints, *r.Checkpoint)
			}
		case TypeDone:
			if r.Done != nil {
				rec.Done = r.Done
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("journal: %s has no readable header", path)
	}
	if rec.Header.Version > Version {
		return nil, fmt.Errorf("journal: %s is format version %d, this build reads ≤ %d",
			path, rec.Header.Version, Version)
	}
	if torn {
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		rec.TruncatedBytes = info.Size() - intact
		if err := os.Truncate(path, intact); err != nil {
			return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
	}
	return rec, nil
}
