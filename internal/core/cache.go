package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/journal"
	"repro/internal/param"
)

// EvalCache memoizes evaluator results keyed by design-space index so that
// repeated explorations of the same (space, evaluator) pair skip
// re-measurement. It is safe for concurrent use and may be shared across
// any number of simultaneous Run/RunContext calls; concurrent runs that
// miss on the same configuration are deduplicated in flight, so each
// configuration is measured once no matter how many sessions want it.
//
// Entries are namespaced by a fingerprint of the design space's parameter
// grid, so concurrent or sequential runs over different spaces are fully
// isolated from each other — an index in one space can never be served
// another space's objectives. The evaluator itself cannot be
// fingerprinted: reusing one cache across different evaluators over the
// same space (e.g. the same benchmark on two devices) would conflate their
// measurements, so keep one cache per (space, evaluator) pair.
type EvalCache struct {
	mu     sync.Mutex
	spaces map[string]*spaceCache
	hits   atomic.Int64
	misses atomic.Int64
	// coalesced counts the subset of hits that were resolved by waiting on
	// another run's in-flight evaluation of the same configuration — the
	// memo-cache's cross-run singleflight waits.
	coalesced atomic.Int64

	// dir, when non-empty, spills memoized entries to one JSON-lines file
	// per space namespace and loads them on the namespace's first fetch; see
	// NewEvalCacheDir. spillErrors counts degraded-to-memory failures and
	// persisted records skipped at load.
	dir         string
	spillErrors atomic.Int64
}

// spaceCache is one space's namespace: memoized objectives plus the
// in-flight evaluations being computed right now. fingerprint names its
// spill file; objectives and size are the space's vector length and index
// range: what a persisted record must fit before it is served.
type spaceCache struct {
	fingerprint string
	objectives  int
	size        int64
	objs        map[int64][]float64
	inflight    map[int64]chan struct{}
	spill       *journal.AppendFile // nil when memory-only (or degraded)
	// loaded is set once the namespace's spill has been read (see load).
	loaded bool
}

// NewEvalCache returns an empty cache.
func NewEvalCache() *EvalCache {
	return &EvalCache{spaces: make(map[string]*spaceCache)}
}

// SpaceFingerprint identifies a design space by its parameter names and
// grids, so a cache cannot serve index-keyed results across unrelated
// spaces, and callers that persist index-keyed measurements (the disk
// spill, the evaluation journal) only ever decode a stored index against
// the space it was measured in.
func SpaceFingerprint(space *param.Space, objectives int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "objs=%d;size=%d", objectives, space.Size())
	for _, p := range space.Params() {
		fmt.Fprintf(&b, ";%s=%v", p.Name, p.Values)
	}
	return b.String()
}

// RunFingerprint identifies a run's deterministic identity: the space
// grid and objective count plus the seed, every budget that shapes the
// sample sequence, and the search strategy's names (a non-default sampler,
// modeler, or selector consumes the RNG differently, so strategies are never
// replay-compatible with each other). Two runs with equal fingerprints draw
// identical bootstraps, pools, and forests, which is what makes journal
// replay byte-identical — and why resume refuses a journal whose
// fingerprint differs from the relaunched run's.
func RunFingerprint(space *param.Space, opts Options) string {
	o := opts.withDefaults()
	info := o.Strategy.Info()
	// The forest's tree-shape settings are fixed at their defaults; the
	// literal zeros keep the bytes of journals that recorded them.
	return fmt.Sprintf("%s;seed=%d;rs=%d;iters=%d;batch=%d;pool=%d;trees=%d;depth=0;leaf=0;mtry=0;ratio=0;sampler=%s;modeler=%s;selector=%s;maxunmeas=%g",
		SpaceFingerprint(space, o.Objectives), o.Seed, o.RandomSamples,
		o.MaxIterations, o.MaxBatch, o.PoolCap, o.Forest.Trees,
		info.Sampler, info.Modeler, info.Selector,
		o.MaxUnmeasuredFraction)
}

// evalCacheView is a cache handle bound to one space namespace and to the
// backend that measures its misses; the engine obtains one per run so every
// lookup and store lands in the right space.
type evalCacheView struct {
	c       *EvalCache
	s       *spaceCache
	backend Backend
}

// view returns the handle for the given space fingerprint — built from
// the same objective count and space size — creating the namespace on
// first use. It reads no spill: a run whose every configuration replay
// answers never fetches, so it never pays for loading one.
func (c *EvalCache) view(fingerprint string, objectives int, size int64, backend Backend) *evalCacheView {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.spaces[fingerprint]
	if !ok {
		s = &spaceCache{
			fingerprint: fingerprint,
			objectives:  objectives,
			size:        size,
			objs:        make(map[int64][]float64),
			inflight:    make(map[int64]chan struct{}),
		}
		c.spaces[fingerprint] = s
	}
	return &evalCacheView{c: c, s: s, backend: backend}
}

// load rehydrates the namespace from its spill file and keeps the appender,
// once, on the namespace's first fetch; called under c.mu. On any failure
// the namespace degrades to memory-only rather than failing the run.
func (c *EvalCache) load(s *spaceCache) {
	if s.loaded {
		return
	}
	s.loaded = true
	if c.dir == "" {
		return
	}
	af, err := c.openSpill(s)
	if err != nil {
		c.spillErrors.Add(1)
	}
	s.spill = af
}

// fetchBatch resolves one evaluation batch against the cache: cached
// indices are served directly, misses are evaluated through the backend in
// a single batched call, and indices another run is already evaluating are
// waited on rather than re-measured — the singleflight guarantee: across
// any number of concurrent runs, each configuration is measured at most
// once.
//
// The returned objectives have len(idxs), position-matched, each a private
// copy; nil entries mark configurations that could not be resolved
// (cancellation, backend failure), in which case the error is non-nil. The
// outcome counts this call's hits and misses: an index resolved by waiting
// on another run's in-flight evaluation counts as a hit.
func (v *evalCacheView) fetchBatch(ctx context.Context, idxs []int64, cfgs []param.Config) ([][]float64, batchOutcome, error) {
	var bo batchOutcome
	objs := make([][]float64, len(idxs))
	pending := make([]int, len(idxs)) // positions still unresolved
	for i := range pending {
		pending[i] = i
	}
	var waited map[int]bool // positions that waited on another run's in-flight eval
	for len(pending) > 0 {
		var lead []int // positions this call evaluates
		var waits []int
		var waitCh []chan struct{}
		v.c.mu.Lock()
		v.c.load(v.s)
		for _, i := range pending {
			idx := idxs[i]
			if cached, ok := v.s.objs[idx]; ok {
				objs[i] = append([]float64(nil), cached...)
				bo.hits++
				v.c.hits.Add(1)
				if waited[i] {
					// Served by the evaluation another run had in flight
					// when we first looked: a cross-run coalesce hit.
					v.c.coalesced.Add(1)
				}
				continue
			}
			if ch, inflight := v.s.inflight[idx]; inflight {
				waits = append(waits, i)
				waitCh = append(waitCh, ch)
				if waited == nil {
					waited = make(map[int]bool)
				}
				waited[i] = true
				continue
			}
			v.s.inflight[idx] = make(chan struct{})
			lead = append(lead, i)
			bo.misses++
			v.c.misses.Add(1)
		}
		v.c.mu.Unlock()

		if len(lead) > 0 {
			batch := make([]param.Config, len(lead))
			for j, i := range lead {
				batch[j] = cfgs[i]
			}
			var res [][]float64
			var evalErr error
			func() {
				// Release the in-flight registrations even if the backend
				// panics, so waiters elect a new leader instead of hanging;
				// store whatever completed first.
				defer func() {
					var stored []journal.SampleRecord
					v.c.mu.Lock()
					for j, i := range lead {
						idx := idxs[i]
						if j < len(res) && res[j] != nil {
							v.s.objs[idx] = append([]float64(nil), res[j]...)
							objs[i] = append([]float64(nil), res[j]...)
							stored = append(stored, journal.SampleRecord{Index: idx, Objs: objs[i]})
						}
						if ch, ok := v.s.inflight[idx]; ok {
							delete(v.s.inflight, idx)
							close(ch)
						}
					}
					v.c.mu.Unlock()
					// Persist outside the cache lock: the appender has its
					// own mutex and fsyncs must not serialize other runs.
					v.c.spill(v.s, stored)
				}()
				res, evalErr = v.backend.EvaluateBatch(ctx, batch)
			}()
			if evalErr != nil {
				return objs, bo, evalErr
			}
		}

		for j := range waits {
			select {
			case <-waitCh[j]:
				// The leader stored the value (next round hits the cache)
				// or aborted (next round elects a new leader).
			case <-ctx.Done():
				return objs, bo, ctx.Err()
			}
		}
		pending = waits
	}
	return objs, bo, nil
}

// Hits returns the number of lookups served from memoized entries.
func (c *EvalCache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of lookups that had to evaluate.
func (c *EvalCache) Misses() int64 { return c.misses.Load() }

// CoalesceHits returns the subset of Hits resolved by waiting on another
// run's in-flight evaluation of the same configuration (the cross-run
// singleflight path), rather than from an already memoized entry.
func (c *EvalCache) CoalesceHits() int64 { return c.coalesced.Load() }

// Len returns the number of memoized configurations across all spaces.
func (c *EvalCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.spaces {
		n += len(s.objs)
	}
	return n
}
