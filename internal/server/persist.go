package server

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
)

// This file is the manager's durability layer. With Config.DataDir set,
// every run owns a directory:
//
//	<data-dir>/runs/<id>/meta.json     run identity + originating request
//	<data-dir>/runs/<id>/journal.jsonl fsync'd evaluation journal
//	<data-dir>/runs/<id>/result.json   terminal status + front, once finished
//	<data-dir>/cache/<problem>/        evaluator memo-cache spill files
//
// meta.json is written before the first evaluation, result.json after the
// last; both atomically (temp file + rename), and the restore pass removes
// the temp file a crash before a rename leaves. Between the two the journal
// is the single source of truth: a directory with meta but no result is by
// definition an interrupted run, which -resume replays. The journal, like
// the cache spill, is opened through journal.OpenAppend: a torn tail is cut
// on every open, and a file with no intact line restarts with its header —
// so a journal cut inside its header, or never created (a crash right
// after meta.json), resumes as a run that measured nothing.
// Resume works by relaunching the deterministic engine with the journal's
// batch records pre-loaded (core.Options.Replay, its one resume input):
// every round the journal holds whole is fast-forwarded — its journaled
// batch measured from the journal, with no forest fit, pool prediction or
// selection — and only an incomplete or unrecorded round is recomputed.
// No evaluator call is repeated, so a resumed run is byte-identical to an
// uninterrupted one. Recovery progress, resume refusals and persistence
// errors go to the process logger, which the daemon points at stderr.

// runMeta is meta.json: enough to rebuild the session and its engine
// options after a restart.
type runMeta struct {
	ID      string     `json:"id"`
	Seq     int64      `json:"seq"`
	Problem string     `json:"problem"`
	Created time.Time  `json:"created"`
	Request RunRequest `json:"request"`
}

// storedResult is a session's terminal record — the status it ended with,
// when, and its front (nil when the run never produced a result) — and,
// marshalled as is, result.json. session.finish builds it once; from then
// on the same value is what GET /runs/{id} and /front answer with, what
// persistTerminal writes and what a restarted daemon reads back, so a
// client reads the same bytes before and after a restart.
type storedResult struct {
	Status   RunStatus         `json:"status"`
	Finished time.Time         `json:"finished"`
	Front    *core.StoredFront `json:"front,omitempty"`
}

func (m *Manager) runDir(id string) string {
	return filepath.Join(m.cfg.DataDir, "runs", id)
}

func (m *Manager) journalPath(id string) string {
	return filepath.Join(m.runDir(id), "journal.jsonl")
}

// cacheDirName maps a problem name to a filesystem-safe directory name: a
// readable prefix plus a hash so distinct names never collide after
// sanitizing.
func cacheDirName(problem string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, problem)
	if len(clean) > 24 {
		clean = clean[:24]
	}
	sum := sha256.Sum256([]byte(problem))
	return fmt.Sprintf("%s-%x", clean, sum[:4])
}

// persistStart creates the run directory, writes meta.json, and opens the
// run's journal with its fingerprint header. On failure the directory is
// removed so a rejected launch leaves no on-disk trace.
func (m *Manager) persistStart(s *session, fingerprint string) error {
	dir := m.runDir(s.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := runMeta{ID: s.id, Seq: s.seq, Problem: s.problem.Name, Created: s.created, Request: s.req}
	if err := journal.WriteJSONAtomic(filepath.Join(dir, "meta.json"), meta); err != nil {
		os.RemoveAll(dir)
		return err
	}
	jw, err := journal.Create(m.journalPath(s.id), s.journalHeader(fingerprint))
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	s.jw = jw
	return nil
}

// journalHeader is the header of the session's journal: the run's
// identity and the fingerprint resume checks.
func (s *session) journalHeader(fingerprint string) journal.Header {
	return journal.Header{
		RunID:       s.id,
		Problem:     s.problem.Name,
		Fingerprint: fingerprint,
		Seed:        s.req.Seed,
		Created:     s.created,
	}
}

// persistTerminal runs after a session's engine goroutine finishes, with
// s.disk held: it journals the terminal marker, writes the session's record
// as result.json and closes the journal — unless the run was stopped by
// daemon shutdown, in which case the journal ends at its last batch, as a
// crash between two appends would leave it, and the directory stays in the
// interrupted (resumable) shape. A user DELETE is different: it persists as
// terminal, so a restart cannot resurrect a run its owner ended.
func (m *Manager) persistTerminal(s *session, rec *storedResult) {
	if s.jw == nil {
		return
	}
	defer s.jw.Close()
	if rec.Status.State == StateCancelled && m.isClosed() {
		return // graceful shutdown: leave the run resumable
	}
	_ = s.jw.Done(journal.Done{State: string(rec.Status.State), Error: rec.Status.Error})
	m.writeResult(s.id, rec)
}

// writeResult writes a terminal record as the run's result.json.
func (m *Manager) writeResult(id string, rec *storedResult) {
	if err := journal.WriteJSONAtomic(filepath.Join(m.runDir(id), "result.json"), rec); err != nil {
		log.Printf("run %s: persisting result: %v", id, err)
	}
}

// RecordBatch implements core.BatchRecorder over the session's journal:
// each measured batch — and any indices it tolerated away unmeasured under
// MaxUnmeasuredFraction — is durably appended before the engine proceeds.
// A successful append also flips a recovering session to running —
// replayed batches are never re-journaled, so an append means the run is
// past its recovered history and measuring live again.
func (s *session) RecordBatch(b journal.Batch) error {
	if err := s.jw.Batch(b); err != nil {
		return err
	}
	s.leaveRecovering()
	return nil
}

// restoreDataDir scans <data-dir>/runs after a restart: terminal runs are
// restored as read-only sessions (their status and front keep serving, and
// TTL/cap eviction keeps applying to them), interrupted runs are returned
// for the resume pass, and the sequence counter is advanced past every
// run directory on disk, restored or skipped, so newly minted ids never
// collide with old ones. Each run directory loses the temp files of
// atomic writes a crash interrupted.
func (m *Manager) restoreDataDir() []runMeta {
	root := filepath.Join(m.cfg.DataDir, "runs")
	entries, err := os.ReadDir(root)
	if err != nil {
		if !os.IsNotExist(err) {
			log.Printf("scanning %s: %v", root, err)
		}
		return nil
	}
	var interrupted []runMeta
	var maxSeq int64
	for _, e := range entries {
		id := e.Name()
		seq, ok := parseSeq(id)
		if !e.IsDir() || !ok {
			continue
		}
		// Past skipped directories too: a new run minted under a skipped
		// id would truncate that run's journal beside its old result.json.
		maxSeq = max(maxSeq, seq)
		dir := filepath.Join(root, id)
		if n, err := journal.RemoveTemps(dir); err != nil {
			log.Printf("run %s: removing temp files: %v", id, err)
		} else if n > 0 {
			log.Printf("run %s: removed %d temp files left by a crash", id, n)
		}
		var meta runMeta
		if err := journal.ReadJSON(filepath.Join(dir, "meta.json"), &meta); err != nil {
			log.Printf("run %s: unreadable meta.json, skipping: %v", id, err)
			continue
		}
		if meta.ID != id || meta.Seq != seq {
			// The store and eviction key a session by its id: one built from
			// this meta would shadow, and on eviction unlink, another run.
			log.Printf("run %s: meta.json names %s (seq %d), skipping", id, meta.ID, meta.Seq)
			continue
		}
		var rec storedResult
		err := journal.ReadJSON(filepath.Join(dir, "result.json"), &rec)
		if err == nil && !rec.Status.State.Terminal() {
			err = fmt.Errorf("stored state %q is not terminal", rec.Status.State)
		}
		switch {
		case err == nil:
			m.restoreTerminal(meta, &rec)
		case errors.Is(err, os.ErrNotExist):
			interrupted = append(interrupted, meta)
		default:
			// The run finished but its result artifact is unreadable; surface
			// that as a failed session rather than replaying a finished run.
			log.Printf("run %s: unreadable result.json: %v", id, err)
			m.restoreFailed(meta, fmt.Errorf("stored result unreadable: %w", err))
		}
	}
	if maxSeq > m.seq.Load() {
		m.seq.Store(maxSeq)
	}
	return interrupted
}

// restoreTerminal places a finished run back in the store under the record
// it persisted.
func (m *Manager) restoreTerminal(meta runMeta, rec *storedResult) {
	if rec.Finished.IsZero() {
		rec.Finished = time.Now()
	}
	s := m.newSession(meta, StateRecovering)
	s.settle(rec)
	s.cancel()
	m.store.Put(s)
}

// restoreFailed places a run back in the store as failed, without touching
// its directory, which eviction leaves too — a later restart under a fixed
// configuration can still resume it.
func (m *Manager) restoreFailed(meta runMeta, err error) {
	s := m.newSession(meta, StateRecovering)
	s.keepDir = true
	s.finish(nil, err)
	s.cancel()
	m.store.Put(s)
}

// failInterrupted handles interrupted runs when the daemon starts without
// resume enabled: each id still resolves (as failed, with an explanatory
// error) and its directory stays intact for a future -resume restart.
func (m *Manager) failInterrupted(metas []runMeta) {
	for _, meta := range metas {
		m.restoreFailed(meta, errors.New("interrupted by daemon restart; start with -resume to continue it"))
	}
}

// resumeInterrupted relaunches every interrupted run from its journal.
// Sessions appear in the store immediately (state "recovering") and
// GET /readyz stays not-ready until each one has either reached live
// measurement or gone terminal. Resume failures (missing problem,
// fingerprint mismatch, unrecoverable journal) mark the session failed in
// memory but leave its directory untouched, through eviction too.
func (m *Manager) resumeInterrupted(metas []runMeta) {
	for _, meta := range metas {
		s := m.newSession(meta, StateRecovering)
		m.store.Put(s)
		m.wg.Add(1)
		go m.resumeRun(s)
	}
}

// resumeRun replays one interrupted run's journal through the engine and
// continues it from the first unmeasured configuration. It holds no
// scheduler slot: recovery must never wait behind queued work.
func (m *Manager) resumeRun(s *session) {
	defer m.release(s, nil)
	fail := func(err error) {
		log.Printf("resume %s: %v", s.id, err)
		s.keepDir = true
		s.finish(nil, err)
	}
	if s.problem.Space == nil {
		fail(fmt.Errorf("%w: %q (re-register it and restart to resume)", ErrUnknownProblem, s.problem.Name))
		return
	}
	opts := m.buildOpts(s)
	// Reopen refuses a journal of another fingerprint before appending to
	// it, and starts one cut inside its header over as measuring nothing.
	jw, rec, err := journal.Reopen(m.journalPath(s.id), s.journalHeader(core.RunFingerprint(s.problem.Space, opts)))
	if err != nil {
		fail(err)
		return
	}
	if rec.TruncatedBytes > 0 {
		log.Printf("resume %s: dropped a %d-byte torn journal tail", s.id, rec.TruncatedBytes)
	}
	if rec.Done != nil && rec.Done.State != string(StateDone) {
		// The run was cancelled or failed but crashed before result.json:
		// persist the terminal state now instead of resurrecting the run.
		jw.Close()
		m.restoreDone(s, rec.Done)
		return
	}
	// A journal with a done(done) marker replays to the identical finished
	// result (the engine stops at the same converged/budget point), which
	// regenerates the missing result.json without any evaluator calls.
	log.Printf("resume %s: replaying %d measured evaluations across %d batches", s.id, rec.Samples(), len(rec.Batches))
	s.jw = jw
	opts.Replay = rec.Batches
	m.run(s, opts)
}

// restoreDone finalizes a run whose journal already carries a non-done
// terminal marker (cancelled or failed) but whose result.json was lost to
// the crash: the session ends the way the marker says and its record is
// persisted, so the next restart restores it directly.
func (m *Manager) restoreDone(s *session, done *journal.Done) {
	err := context.Canceled
	if done.State != string(StateCancelled) {
		err = errors.New(done.Error)
	}
	s.disk.Lock()
	defer s.disk.Unlock()
	m.writeResult(s.id, s.finish(nil, err))
}
