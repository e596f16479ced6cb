// Package journal is the durability layer of the daemon: an append-only,
// fsync'd JSON-lines evaluation journal per run, the one open path of every
// append-only file (OpenAppend: the journal and the memo-cache spill alike)
// that makes crash recovery total — a torn tail is cut on every open, a file
// with no intact line restarts with its header, and appending continues, so
// recovery never crash-loops — and the temp-file+rename atomic-write helper
// every other persisted artifact in the repository goes through.
//
// A journal file is one record per line:
//
//	{"t":"header","header":{...}} exactly once, first line
//	{"t":"batch","batch":{...}}   one per measured evaluation batch
//	{"t":"done","done":{...}}     terminal-state marker, at most once
//
// Every record is written with a single write(2) call and fsync'd before
// the append returns, so after a crash the file is a strict prefix of the
// record sequence plus at most one torn tail. A graceful shutdown appends
// nothing, so it leaves the shape of a crash between two batch appends; a
// line of any other type (the shutdown markers older builds wrote) is
// skipped on read. Measured objectives are the expensive thing in this
// system — seconds to minutes of real compute per configuration — and the
// journal is what makes them survive a SIGKILL.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
	"time"

	"repro/internal/nanjson"
)

// Record types, the "t" discriminator of each journal line.
const (
	TypeHeader = "header"
	TypeBatch  = "batch"
	TypeDone   = "done"
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
	// Hits and Misses count the memo-cache lookups behind the batch's
	// measured and unmeasured configurations, so a resumed run reports the
	// counts the interrupted one saw. Absent when zero — without a cache,
	// and in journals written before they existed.
	Hits   int `json:"hits,omitempty"`
	Misses int `json:"misses,omitempty"`
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
	T      string  `json:"t"`
	Header *Header `json:"header,omitempty"`
	Batch  *Batch  `json:"batch,omitempty"`
	Done   *Done   `json:"done,omitempty"`
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

// OpenAppend is the one way an append-only JSON-lines file is opened — a
// run journal (Reopen, Create) and a memo-cache spill alike. It passes each
// intact line to each, in order, with its position among them (0 is the
// header); cuts the torn tail, from the first line that is not valid JSON
// or a final line without its newline to the end of the file; and opens the
// file for durable appends. A file that holds no intact line — absent,
// empty, or only a torn first line — is started over with header as its
// first line. It returns the number of torn bytes cut. An error from each
// (a foreign header, say) is returned with the file left byte for byte as
// it was.
func OpenAppend(path string, header any, each func(n int, line []byte) error) (*AppendFile, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	af := &AppendFile{f: f}
	lines, cut, err := readCut(f, each)
	if err == nil && lines == 0 {
		if err = f.Truncate(0); err == nil {
			err = af.Append(header)
		}
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return af, cut, nil
}

// readCut passes each intact line of f to each, as OpenAppend describes,
// and truncates f after the last intact line. It returns how many lines
// each saw and how many bytes were cut; after an error from each, f is
// untouched.
func readCut(f *os.File, each func(n int, line []byte) error) (lines int, cut int64, err error) {
	var intact int64
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A final line without its newline is by definition torn: the
			// newline is part of the record's single durable write.
			break
		}
		if err != nil {
			return lines, 0, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			if !json.Valid(trimmed) {
				break
			}
			if err := each(lines, trimmed); err != nil {
				return lines, 0, err
			}
			lines++
		}
		intact += int64(len(line))
	}
	info, err := f.Stat()
	if err != nil {
		return lines, 0, err
	}
	if cut = info.Size() - intact; cut > 0 {
		if err := f.Truncate(intact); err != nil {
			return lines, 0, fmt.Errorf("journal: cutting the torn tail of %s: %w", f.Name(), err)
		}
	}
	return lines, cut, nil
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

// Writer appends records to one run's journal.
type Writer struct {
	af *AppendFile
}

// Create starts a fresh journal at path, removing any previous one, and
// durably writes the header as its first record.
func Create(path string, h Header) (*Writer, error) {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	w, _, err := Reopen(path, h)
	return w, err
}

// Reopen is the resume path's one open of a run journal: it reads every
// intact record, cuts the torn tail and opens the journal for appending, all
// through OpenAppend. A journal with no intact line — absent, empty, or cut
// inside its header — starts over with h as its header, and recovers as a
// run that measured nothing. A header from a future format version, or one
// whose fingerprint is not h's, is an error that leaves the file as it was,
// so nothing is ever appended to another run's journal.
func Reopen(path string, h Header) (*Writer, *Recovered, error) {
	if h.Version == 0 {
		h.Version = Version
	}
	rec := &Recovered{Header: h}
	af, cut, err := OpenAppend(path, record{T: TypeHeader, Header: &h}, rec.parse(path, h.Fingerprint))
	if err != nil {
		return nil, nil, err
	}
	rec.TruncatedBytes = cut
	return &Writer{af: af}, rec, nil
}

// Batch durably appends one completed evaluation batch.
func (w *Writer) Batch(b Batch) error {
	return w.af.Append(record{T: TypeBatch, Batch: &b})
}

// Done durably appends the terminal-state marker.
func (w *Writer) Done(d Done) error {
	return w.af.Append(record{T: TypeDone, Done: &d})
}

// Close closes the journal file.
func (w *Writer) Close() error { return w.af.Close() }

// Recovered is the replayable content of one journal file.
type Recovered struct {
	Header  Header
	Batches []Batch
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

// Replay returns the journal's batch records, in order: what the engine's
// resume path consumes (core.Options.Replay).
func (r *Recovered) Replay() []Batch { return r.Batches }

// Recover reads a run journal and cuts its torn tail, as Reopen does, but
// opens nothing for appending and starts nothing over: a journal without a
// readable header, an absent one included, is an error, as is one from a
// future format version.
func Recover(path string) (*Recovered, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec := &Recovered{}
	lines, cut, err := readCut(f, rec.parse(path, ""))
	if err != nil {
		return nil, err
	}
	if lines == 0 {
		return nil, fmt.Errorf("journal: %s has no readable header", path)
	}
	rec.TruncatedBytes = cut
	return rec, nil
}

// parse returns the line parser Recover and Reopen pass to readCut. The
// first line must be a header this build reads, of the given fingerprint
// unless that is empty; every later line is a record, and one of an unknown
// type or shape is skipped (forward compatibility).
func (rec *Recovered) parse(path, fingerprint string) func(n int, line []byte) error {
	return func(n int, line []byte) error {
		var r record
		err := json.Unmarshal(line, &r)
		if n == 0 {
			switch {
			case err != nil || r.T != TypeHeader || r.Header == nil:
				return fmt.Errorf("journal: %s has no readable header", path)
			case r.Header.Version > Version:
				return fmt.Errorf("journal: %s is format version %d, this build reads ≤ %d",
					path, r.Header.Version, Version)
			case fingerprint != "" && r.Header.Fingerprint != fingerprint:
				return fmt.Errorf("journal: %s has fingerprint %q, not the relaunched run's %q; refusing to replay",
					path, r.Header.Fingerprint, fingerprint)
			}
			rec.Header = *r.Header
			return nil
		}
		if err != nil {
			return nil
		}
		switch {
		case r.T == TypeBatch && r.Batch != nil:
			rec.Batches = append(rec.Batches, *r.Batch)
		case r.T == TypeDone && r.Done != nil:
			rec.Done = r.Done
		}
		return nil
	}
}
