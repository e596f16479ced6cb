package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/journal"
)

// NewEvalCacheDir returns a cache that spills every memoized measurement
// to a JSON-lines file per space namespace under dir (created on demand),
// and that loads each namespace from its file on the namespace's first
// fetch — so daemon restarts, re-runs, and replicas pointed at shared
// storage all reuse measured objectives instead of re-paying for them,
// while a resumed run that its journal answers whole reads no spill.
//
// Each namespace file is named by a hash of the space fingerprint and
// begins with a header line carrying the full fingerprint; a file whose
// header does not match is left untouched and the namespace runs
// memory-only (never serve one space's objectives to another). The file is
// opened the way a run journal is (journal.OpenAppend): a torn tail is cut,
// so records appended after a crash stay readable, and a file with no
// intact line — a crash inside its header — starts over. Spill I/O
// degrades, it never breaks a run: a load failure starts the namespace
// empty, a record of the wrong vector length or outside the space is
// skipped (its index is measured again), an append failure disables
// further spilling for that namespace, and each is counted in SpillErrors.
//
// The usual EvalCache caveat applies with more force once entries
// persist: the evaluator cannot be fingerprinted, so a directory must
// be dedicated to one (space, evaluator) pair — the daemon keys spill
// directories by problem name and deletes them when a problem is
// re-registered with a new evaluator.
func NewEvalCacheDir(dir string) *EvalCache {
	c := NewEvalCache()
	c.dir = dir
	return c
}

// spillHeader is the first line of a namespace spill file; every later line
// is one journal.SampleRecord, the same record a run journal's batch holds.
type spillHeader struct {
	Fingerprint string `json:"fingerprint"`
}

// spillPath maps a space fingerprint to its namespace file.
func spillPath(dir, fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return filepath.Join(dir, fmt.Sprintf("%x.jsonl", sum[:8]))
}

// openSpill loads the namespace's persisted measurements into s.objs and
// returns the appender for new ones, through journal.OpenAppend: a torn
// tail is cut, and a file with no intact line starts over with the
// namespace's header. Called under c.mu, once per namespace (load); any
// failure is reported through the returned error and the namespace runs
// memory-only.
func (c *EvalCache) openSpill(s *spaceCache) (*journal.AppendFile, error) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	path := spillPath(c.dir, s.fingerprint)
	af, _, err := journal.OpenAppend(path, spillHeader{Fingerprint: s.fingerprint}, func(n int, line []byte) error {
		if n == 0 {
			var h spillHeader
			if json.Unmarshal(line, &h) != nil || h.Fingerprint != s.fingerprint {
				return fmt.Errorf("core: spill file %s belongs to a different space", path)
			}
			return nil
		}
		var r journal.SampleRecord
		if json.Unmarshal(line, &r) != nil {
			return nil // schema drift: skip the record, keep the rest
		}
		if len(r.Objs) != s.objectives || r.Index < 0 || r.Index >= s.size {
			// A record the space cannot have produced would fail every run
			// that draws its index: skip it and let the index be measured
			// and re-spilled.
			c.spillErrors.Add(1)
			return nil
		}
		s.objs[r.Index] = r.Objs
		return nil
	})
	return af, err
}

// spill durably appends newly memoized entries to the namespace file.
// Called outside c.mu (the appender has its own lock, and fsyncs must not
// serialize unrelated runs); a failure disables the namespace's spill so
// one sick disk degrades to memory-only caching instead of failing every
// future batch.
func (c *EvalCache) spill(s *spaceCache, recs []journal.SampleRecord) {
	if len(recs) == 0 {
		return
	}
	c.mu.Lock()
	af := s.spill
	c.mu.Unlock()
	if af == nil {
		return
	}
	vs := make([]any, len(recs))
	for i := range recs {
		vs[i] = &recs[i]
	}
	if err := af.Append(vs...); err != nil {
		c.spillErrors.Add(1)
		c.mu.Lock()
		if s.spill == af {
			s.spill = nil
		}
		c.mu.Unlock()
		af.Close()
	}
}

// SpillErrors counts spill I/O failures and skipped records since the cache
// was created (0 on a healthy disk holding only its own records, and always
// 0 for a memory-only cache).
func (c *EvalCache) SpillErrors() int64 { return c.spillErrors.Load() }

// Close releases every namespace's spill file. The cache remains usable
// memory-only afterwards: a namespace whose spill was never loaded is not
// loaded later either.
func (c *EvalCache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for _, s := range c.spaces {
		s.loaded = true
		if s.spill != nil {
			if err := s.spill.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			s.spill = nil
		}
	}
	return firstErr
}

// RemoveSpill deletes the cache's spill directory from disk — the reset
// path when a problem is re-registered with a new evaluator and its
// persisted measurements would corrupt future runs. The receiver may be
// nil or memory-only; both are no-ops.
func (c *EvalCache) RemoveSpill() error {
	if c == nil || c.dir == "" {
		return nil
	}
	c.Close()
	return os.RemoveAll(c.dir)
}
