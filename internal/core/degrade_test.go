package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/forest"
	"repro/internal/journal"
	"repro/internal/param"
)

// dropBackend evaluates through fn but leaves configurations selected by
// drop unmeasured (nil), returning a partial-batch error alongside the
// completed results — the shape a lossy worker fleet produces.
type dropBackend struct {
	fn    func(cfg param.Config) []float64
	drop  func(cfg param.Config) bool
	quiet bool   // leave the nil entries to speak for themselves: no error
	begin func() // when non-nil, called as each batch arrives
	calls atomic.Int64
}

func (b *dropBackend) EvaluateBatch(ctx context.Context, cfgs []param.Config) ([][]float64, error) {
	b.calls.Add(1)
	if b.begin != nil {
		b.begin()
	}
	out := make([][]float64, len(cfgs))
	dropped := 0
	for i, cfg := range cfgs {
		if b.drop != nil && b.drop(cfg) {
			dropped++
			continue
		}
		out[i] = b.fn(cfg)
	}
	if dropped > 0 && !b.quiet {
		return out, fmt.Errorf("drop backend: %d of %d configurations lost", dropped, len(cfgs))
	}
	return out, nil
}

// degradeEval mirrors resumeEval as a plain function for the backend.
func degradeEval(cfg param.Config) []float64 {
	return []float64{
		cfg[0] + 0.3*math.Sin(4*cfg[1]) + 0.1*cfg[2],
		cfg[1] + 0.3*math.Cos(3*cfg[0]),
	}
}

// lossyDrop deterministically loses ~10% of configurations by value, so
// the same configurations vanish in every run over the space.
func lossyDrop(cfg param.Config) bool {
	_, frac := math.Modf((cfg[0] + cfg[1] + cfg[2]) * 7.31)
	return frac < 0.1
}

func degradeOpts(rec *memRecorder, frac float64, b Backend) Options {
	o := resumeOpts(rec)
	o.MaxUnmeasuredFraction = frac
	o.Backend = b
	return o
}

// MaxUnmeasuredFraction = 0 keeps the historical strict behavior: any
// unmeasured configuration fails the run.
func TestUnmeasuredFractionZeroFailsFast(t *testing.T) {
	space := resumeSpace(t)
	b := &dropBackend{fn: degradeEval, drop: lossyDrop}
	res, err := Run(space, nil, degradeOpts(&memRecorder{}, 0, b))
	if err == nil {
		t.Fatal("strict run over a lossy backend succeeded")
	}
	if res == nil || len(res.Samples) == 0 {
		t.Fatal("completed measurements of the failed batch were discarded")
	}
	// The counter still reports what was lost — diagnostic even on failure.
	if res.Unmeasured == 0 {
		t.Fatal("failed strict run did not report its unmeasured configurations")
	}
}

// A tolerant run completes over the same lossy backend, counts its skips,
// and journals them.
func TestUnmeasuredFractionToleratesLossyBackend(t *testing.T) {
	space := resumeSpace(t)
	b := &dropBackend{fn: degradeEval, drop: lossyDrop}
	rec := &memRecorder{}
	res, err := Run(space, nil, degradeOpts(rec, 0.9, b))
	if err != nil {
		t.Fatalf("tolerant run failed: %v", err)
	}
	if res.Unmeasured == 0 {
		t.Fatal("lossy backend produced no unmeasured configurations; the scenario is not exercised")
	}
	sum := 0
	for _, ev := range res.Iterations {
		sum += ev.Unmeasured
	}
	// The bootstrap's stats are not in res.Iterations; count its skips via
	// the journal instead.
	journaled := 0
	for _, batch := range rec.batches {
		journaled += len(batch.Unmeasured)
	}
	if journaled != res.Unmeasured {
		t.Fatalf("journal records %d skips, result says %d", journaled, res.Unmeasured)
	}
	// No skipped index may appear among the measured samples of its own
	// batch, and every measured sample must carry objectives.
	for _, s := range res.Samples {
		if s.Objs == nil {
			t.Fatalf("sample %d has nil objectives", s.Index)
		}
	}
}

// gateBackend is the other run of TestEvaluatePath: it holds its one
// measurement in flight from started until release.
type gateBackend struct{ started, release chan struct{} }

func (g gateBackend) EvaluateBatch(_ context.Context, cfgs []param.Config) ([][]float64, error) {
	close(g.started)
	<-g.release
	return [][]float64{{-5, -6}}, nil
}

// The evaluation path as one table. A single batch holds a position for
// every way a configuration can be answered — a replayed skip, two replayed
// measurements, a memo-cache hit, a wait on another run's in-flight
// measurement, two live misses and a configuration the backend loses — and
// the rows vary what the backend does about the loss (leave a nil entry, or
// also report an error) and how much of it MaxUnmeasuredFraction tolerates.
// Each row pins the samples returned, the accounting, and the exact batch
// journaled: replayed entries are never re-journaled, and only a tolerated
// loss is recorded as unmeasured.
func TestEvaluatePath(t *testing.T) {
	space := resumeSpace(t)
	const skip, replayA, replayB, hit, wait, missA, missB, drop = 10, 11, 12, 13, 14, 15, 16, 17
	idxs := []int64{skip, replayA, replayB, hit, wait, missA, missB, drop}
	cfg := func(idx int64) param.Config { return space.AtIndex(idx) }
	live := func(idx int64) []float64 { return degradeEval(cfg(idx)) }
	sample := func(idx int64, objs []float64) Sample {
		return Sample{Index: idx, Config: cfg(idx), Objs: objs, Iteration: 2, ActiveLearning: true}
	}
	record := func(idx int64, objs []float64) journal.SampleRecord {
		return journal.SampleRecord{Index: idx, Objs: objs}
	}
	replayed := []Sample{sample(replayA, []float64{-1, -2}), sample(replayB, []float64{-7, -8})}
	cached := sample(hit, []float64{-3, -4})
	waited := sample(wait, []float64{-5, -6})
	missed := []Sample{sample(missA, live(missA)), sample(missB, live(missB))}

	// withWait is what comes back when the fetch gets to wait for the other
	// run (the backend reported no error); withoutWait when a backend error
	// or a cancellation ends the fetch first and leaves the in-flight
	// position unanswered.
	withWait := append(append(append([]Sample(nil), replayed...), cached, waited), missed...)
	withoutWait := append(append(append([]Sample(nil), replayed...), cached), missed...)
	// A journaled batch counts the memo-cache lookups behind its samples
	// and unmeasured indices: a miss left unmeasured and not journaled as
	// such is fetched, and counted, again on resume.
	journaled := func(samples []Sample, hits, misses int, unmeasured ...int64) journal.Batch {
		b := journal.Batch{Iteration: 2, Active: true, Unmeasured: unmeasured, Hits: hits, Misses: misses}
		for _, s := range samples[len(replayed):] {
			b.Samples = append(b.Samples, record(s.Index, s.Objs))
		}
		return b
	}

	for _, tc := range []struct {
		name     string
		fraction float64
		loud     bool // the backend reports its loss as an error too
		cancel   bool // the run is cancelled while the backend measures
		samples  []Sample
		outcome  batchOutcome
		journal  journal.Batch
		wantErr  string // substring; "" = the batch succeeds (degraded)
	}{
		{name: "strict", fraction: 0,
			samples: withWait, outcome: batchOutcome{hits: 2, misses: 3, unmeasured: 2},
			journal: journaled(withWait, 2, 2), wantErr: "backend returned 6 results for a 8-configuration batch"},
		{name: "below the loss", fraction: 0.2,
			samples: withWait, outcome: batchOutcome{hits: 2, misses: 3, unmeasured: 2},
			journal: journaled(withWait, 2, 2), wantErr: "backend returned 6 results"},
		{name: "at the loss", fraction: 0.25,
			samples: withWait, outcome: batchOutcome{hits: 2, misses: 3, unmeasured: 2},
			journal: journaled(withWait, 2, 3, drop)},
		{name: "above the loss", fraction: 1,
			samples: withWait, outcome: batchOutcome{hits: 2, misses: 3, unmeasured: 2},
			journal: journaled(withWait, 2, 3, drop)},
		{name: "backend error below the loss", fraction: 0.25, loud: true,
			samples: withoutWait, outcome: batchOutcome{hits: 1, misses: 3, unmeasured: 3},
			journal: journaled(withoutWait, 1, 2), wantErr: "drop backend"},
		{name: "backend error at the loss", fraction: 0.375, loud: true,
			samples: withoutWait, outcome: batchOutcome{hits: 1, misses: 3, unmeasured: 3},
			journal: journaled(withoutWait, 1, 3, wait, drop)},
		{name: "cancelled", fraction: 1, cancel: true,
			samples: withoutWait, outcome: batchOutcome{hits: 1, misses: 3, unmeasured: 3},
			journal: journaled(withoutWait, 1, 2), wantErr: "drop backend"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cache := NewEvalCache()
			fp := SpaceFingerprint(space, 2)
			seed := &LocalBackend{Eval: EvaluatorFunc(func(param.Config) []float64 { return cached.Objs })}
			if _, _, err := cache.view(fp, 2, space.Size(), seed).fetchBatch(ctx, []int64{hit}, []param.Config{cfg(hit)}); err != nil {
				t.Fatal(err)
			}
			other := gateBackend{started: make(chan struct{}), release: make(chan struct{})}
			otherDone := make(chan struct{})
			go func() {
				defer close(otherDone)
				cache.view(fp, 2, space.Size(), other).fetchBatch(context.Background(), []int64{wait}, []param.Config{cfg(wait)})
			}()
			<-other.started

			// The backend under test is called with the misses only. From
			// inside that call — the in-flight position has been found in
			// flight by then — it lets the other run finish and, in the
			// cancelled row, cancels this one.
			b := &dropBackend{fn: degradeEval, quiet: !tc.loud && !tc.cancel,
				drop: func(c param.Config) bool { return reflect.DeepEqual(c, cfg(drop)) },
				begin: func() {
					close(other.release)
					if tc.cancel {
						cancel()
					}
				}}
			rec := &memRecorder{}
			r := newRun(ctx, space, nil, Options{
				Objectives: 2, MaxUnmeasuredFraction: tc.fraction, Journal: rec, Cache: cache,
				Backend: b,
				Replay: []journal.Batch{{Iteration: 1, Active: true, Unmeasured: []int64{skip},
					Samples: []journal.SampleRecord{record(replayA, replayed[0].Objs), record(replayB, replayed[1].Objs)}}},
			})
			out, bo, err := r.evaluate(idxs, 2, nil)
			<-otherDone

			if tc.wantErr == "" && err != nil {
				t.Fatalf("tolerated batch failed: %v", err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
			if !reflect.DeepEqual(out, tc.samples) {
				t.Errorf("samples = %+v\nwant %+v", out, tc.samples)
			}
			if bo != tc.outcome {
				t.Errorf("outcome = %+v, want %+v", bo, tc.outcome)
			}
			if len(rec.batches) != 1 || !reflect.DeepEqual(rec.batches[0], tc.journal) {
				t.Errorf("journaled %+v\nwant one batch %+v", rec.batches, tc.journal)
			}
			if calls := b.calls.Load(); calls != 1 {
				t.Errorf("%d backend calls, want the misses in one", calls)
			}
			if waits := cache.CoalesceHits(); waits != int64(tc.outcome.hits-1) {
				t.Errorf("%d coalesce hits, want %d", waits, tc.outcome.hits-1)
			}
			if r.replay.skips[skip] != 0 {
				t.Errorf("the replayed skip was not consumed")
			}
		})
	}

	// With no cache and no journal to replay the whole batch goes to the
	// backend; fraction 1 tolerates losing all of it, and the journal still
	// gets the batch — nothing measured, everything unmeasured.
	t.Run("fully lost", func(t *testing.T) {
		rec := &memRecorder{}
		r := newRun(context.Background(), space, nil, Options{
			Objectives: 2, MaxUnmeasuredFraction: 1, Journal: rec,
			Backend: &dropBackend{fn: degradeEval, drop: func(param.Config) bool { return true }},
		})
		out, bo, err := r.evaluate(idxs, 2, nil)
		if err != nil || len(out) != 0 || bo != (batchOutcome{unmeasured: len(idxs)}) {
			t.Fatalf("fully lost batch: %d samples, outcome %+v, err %v", len(out), bo, err)
		}
		want := journal.Batch{Iteration: 2, Active: true, Unmeasured: idxs}
		if len(rec.batches) != 1 || !reflect.DeepEqual(rec.batches[0], want) {
			t.Errorf("journaled %+v\nwant one batch %+v", rec.batches, want)
		}
	})
}

// A bootstrap tolerated away entirely must still fail: there is nothing
// to train on.
func TestFullyUnmeasuredBootstrapFails(t *testing.T) {
	space := resumeSpace(t)
	b := &dropBackend{fn: degradeEval, drop: func(param.Config) bool { return true }}
	_, err := Run(space, nil, degradeOpts(&memRecorder{}, 1, b))
	if err == nil || !strings.Contains(err.Error(), "bootstrap") {
		t.Fatalf("err = %v, want a bootstrap-unmeasured failure", err)
	}
}

// Resuming a degraded run from its journal (Options.Replay) must be
// byte-identical — same samples, same front, same skip history — without
// a single backend call.
func TestDegradedResumeByteIdentical(t *testing.T) {
	space := resumeSpace(t)
	ref := &memRecorder{}
	refRes, err := Run(space, nil, degradeOpts(ref, 0.9, &dropBackend{fn: degradeEval, drop: lossyDrop}))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if refRes.Unmeasured == 0 {
		t.Fatal("reference run skipped nothing; the scenario is not exercised")
	}

	dead := &dropBackend{fn: degradeEval}
	rec := &memRecorder{}
	opts := degradeOpts(rec, 0.9, dead)
	opts.Replay = ref.batches
	res, err := Run(space, nil, opts)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if dead.calls.Load() != 0 {
		t.Fatalf("full replay called the backend %d times", dead.calls.Load())
	}
	if len(rec.batches) != 0 {
		t.Fatalf("full replay journaled %d batches", len(rec.batches))
	}
	if !reflect.DeepEqual(sampleKeys(res.Samples), sampleKeys(refRes.Samples)) {
		t.Fatal("resumed sample order differs from reference")
	}
	if !reflect.DeepEqual(res.Front, refRes.Front) {
		t.Fatal("resumed front differs from reference")
	}
	if res.Unmeasured != refRes.Unmeasured {
		t.Fatalf("resumed Unmeasured = %d, reference %d", res.Unmeasured, refRes.Unmeasured)
	}
	if res.Converged != refRes.Converged {
		t.Fatalf("converged = %v, want %v", res.Converged, refRes.Converged)
	}
}

// The degradation tolerance is part of the run's deterministic identity:
// runs with different fractions skip different work, so their journals
// must never be replay-compatible.
func TestFingerprintCoversUnmeasuredFraction(t *testing.T) {
	space := resumeSpace(t)
	a := resumeOpts(nil)
	b := resumeOpts(nil)
	b.MaxUnmeasuredFraction = 0.25
	if RunFingerprint(space, a) == RunFingerprint(space, b) {
		t.Fatal("fingerprint ignores MaxUnmeasuredFraction")
	}
	c := resumeOpts(nil)
	c.MaxUnmeasuredFraction = 0.25
	if RunFingerprint(space, b) != RunFingerprint(space, c) {
		t.Fatal("equal options produced different fingerprints")
	}

	// The bytes journals already hold, recorded when the forest's tree-shape
	// settings were still exported: resume compares them verbatim.
	small, err := param.NewSpace(param.Levels("z", 1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{}, "objs=0;size=3;z=[1 2 4];seed=0;rs=200;iters=6;batch=300;pool=200000;trees=0;depth=0;leaf=0;mtry=0;ratio=0;sampler=uniform;modeler=forest;selector=even-thin;maxunmeas=0"},
		{Options{Objectives: 2, RandomSamples: 30, MaxIterations: 3, MaxBatch: 15, PoolCap: 400,
			Forest: forest.Options{Trees: 16}, Seed: 7, MaxUnmeasuredFraction: 0.25,
			Strategy: Strategy{Sampler: "prior", Feasibility: true, Selector: "acquisition"}},
			"objs=2;size=3;z=[1 2 4];seed=7;rs=30;iters=3;batch=15;pool=400;trees=16;depth=0;leaf=0;mtry=0;ratio=0;sampler=prior;modeler=feasibility;selector=acquisition;maxunmeas=0.25"},
	} {
		if got := RunFingerprint(small, tc.opts); got != tc.want {
			t.Errorf("RunFingerprint = %q, want %q", got, tc.want)
		}
	}
}

// Options clamping: out-of-range fractions normalize into [0, 1].
func TestUnmeasuredFractionClamped(t *testing.T) {
	o := Options{Objectives: 1, MaxUnmeasuredFraction: -0.5}.withDefaults()
	if o.MaxUnmeasuredFraction != 0 {
		t.Fatalf("negative fraction clamped to %g, want 0", o.MaxUnmeasuredFraction)
	}
	o = Options{Objectives: 1, MaxUnmeasuredFraction: 7}.withDefaults()
	if o.MaxUnmeasuredFraction != 1 {
		t.Fatalf("oversized fraction clamped to %g, want 1", o.MaxUnmeasuredFraction)
	}
}
