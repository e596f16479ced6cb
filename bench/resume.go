package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/catalog"
	"repro/internal/journal"
	"repro/internal/server"
)

// resume is the restart shape. Set-up completes runs on a durable daemon,
// shuts it down and deletes every result.json, which is the interrupted
// shape internal/server/persist.go documents. The timed unit is a restart
// with Resume set: every session replayed to terminal and every front
// fetched. It is repeated on the same data directory, put back each time to
// exactly what set-up left.
type resume struct {
	c    *config
	p    catalog.Problem
	b    budget
	eval *meter
	dir  string
	ids  []string
	// before holds each run's front as fetched before the shutdown, and
	// journalSize what its journal held then.
	before      [][]byte
	seeds       []int64
	journalSize []int64
	restarts    int

	ready     []float64 // restart → every front in hand, seconds, per restart
	restore   []float64 // NewManagerConfig call → return, seconds, per restart
	replayed  []int     // configurations in each run's journal, which a restart replays
	liveCalls int64     // evaluator calls made during restarts; must stay 0
}

func (w *resume) cfg(resumeRuns bool) server.Config {
	return server.Config{DataDir: w.dir, Resume: resumeRuns}
}

func setUpResume(c *config) (instance, error) {
	p := pool192k()
	dir, err := dataDir(c)
	if err != nil {
		return nil, err
	}
	w := &resume{c: c, p: p, dir: dir, eval: &meter{inner: p.Eval, t: c.t}, restarts: c.count(0.7, 2, 1)}
	p.Eval = w.eval
	b := budget{rs: 500, iters: 5, batch: 200, trees: 16}.scaled(c, 8)
	w.b = b
	sessions := 4
	if c.small {
		sessions = 2
	}
	d, err := startDaemon(w.cfg(false), p, nil)
	if err != nil {
		w.close()
		return nil, err
	}
	for i := range sessions {
		s := d.run(b.request(p, c.runSeed(i)), 0)
		if s.Err != "" {
			d.close()
			w.close()
			return nil, errors.New("set-up run: " + s.Err)
		}
		w.before = append(w.before, s.Front)
		w.seeds = append(w.seeds, s.Seed)
		w.replayed = append(w.replayed, s.Samples)
	}
	for _, st := range d.mgr.Statuses() { // newest first
		w.ids = append([]string{st.ID}, w.ids...)
	}
	d.close()
	for _, id := range w.ids {
		fi, err := os.Stat(w.path(id, "journal.jsonl"))
		if err != nil {
			w.close()
			return nil, err
		}
		w.journalSize = append(w.journalSize, fi.Size())
	}
	return w, nil
}

func (w *resume) path(id, file string) string { return filepath.Join(w.dir, "runs", id, file) }

// interrupt puts the data directory back into the interrupted shape set-up
// left: no result.json, journals without the markers a resume appended.
func (w *resume) interrupt() error {
	for i, id := range w.ids {
		if err := os.Remove(w.path(id, "result.json")); err != nil {
			return err
		}
		if err := os.Truncate(w.path(id, "journal.jsonl"), w.journalSize[i]); err != nil {
			return err
		}
	}
	return nil
}

// measure's times are per restart, not per session: a restart is ready when
// its last front is in hand.
func (w *resume) measure() ([]runSample, []float64, float64) {
	var out []runSample
	for range w.restarts {
		if err := w.interrupt(); err != nil {
			out = append(out, runSample{Err: err.Error()})
			break
		}
		out = append(out, w.restart()...)
	}
	return out, w.ready, sum(w.ready)
}

// restart is one timed unit. Each session's wall time runs from the restart
// to its front being in hand.
func (w *resume) restart() []runSample {
	calls := w.eval.calls.Load()
	p := w.p
	p.Eval = w.eval
	start := time.Now()
	d, err := startDaemon(w.cfg(true), p, w.c.t)
	if err != nil {
		return []runSample{{Err: err.Error()}}
	}
	defer d.close()
	w.restore = append(w.restore, time.Since(start).Seconds())
	out := make([]runSample, len(w.ids))
	for i, id := range w.ids {
		run := int64(len(w.ready)*len(w.ids) + i + 1)
		s := runSample{Seed: w.seeds[i]}
		root := w.c.t.newID()
		if _, _, err = d.streamEvents(id, run, root, &s, start); err == nil {
			s.Front, err = d.fetch("GET", "/runs/"+id+"/front", nil, 200, run, root)
		}
		end := time.Now()
		s.Wall = end.Sub(start).Seconds()
		w.c.t.add(span{ID: root, Name: "resumed run", Layer: "bench", Run: run}, start, end)
		switch {
		case err != nil:
			s.Err = err.Error()
		case string(s.Front) != string(w.before[i]):
			s.Err = fmt.Sprintf("run %s: resumed front differs from the front before the restart", id)
		}
		out[i] = s
	}
	w.ready = append(w.ready, time.Since(start).Seconds())
	for _, st := range d.mgr.Statuses() {
		i := slices.Index(w.ids, st.ID)
		if out[i].Samples = st.Samples; out[i].Err == "" && st.Samples != w.replayed[i] {
			out[i].Err = fmt.Sprintf("run %s: %d configurations after the restart, %d before", st.ID, st.Samples, w.replayed[i])
		}
	}
	w.liveCalls += w.eval.calls.Load() - calls
	return out
}

func (w *resume) layerCounts(into map[string]float64) {
	into["evaluator.calls"] = float64(w.liveCalls)
	into["server.restore_ms"] = median(w.restore) * 1e3
}

func (w *resume) verify([]runSample) []string {
	if w.liveCalls != 0 {
		return []string{fmt.Sprintf("%d evaluator calls during resume, want 0", w.liveCalls)}
	}
	return nil
}

func (w *resume) close() { os.RemoveAll(w.dir) }

// probe times the read side on one of set-up's journals: recovering it, and
// the engine replaying it with no service layer around.
func (w *resume) probe(ps *probeSet) {
	path := w.path(w.ids[0], "journal.jsonl")
	var rec *journal.Recovered
	ps.time("journal.recover_ms", 9, 1e3, func() (err error) {
		rec, err = journal.Recover(path)
		return err
	})
	if rec == nil {
		return
	}
	opts := w.b.options(w.p, w.seeds[0])
	opts.Replay = rec.Replay()
	calls := w.eval.calls.Load()
	ps.time("core.replay_s", 3, 1, func() error {
		s, _ := inprocRun(w.p, w.eval, opts, 0, nil)
		switch {
		case s.Err != "":
			return errors.New(s.Err)
		case w.eval.calls.Load() != calls:
			return errors.New("a replayed run called the evaluator")
		case string(s.Front) != string(w.before[0]):
			return errors.New("a replayed run's front differs from the journaled run's")
		}
		return nil
	})
}
