package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/param"
)

var errTest = errors.New("journal write failed")

// memRecorder is an in-memory BatchRecorder capturing what the engine
// would journal.
type memRecorder struct {
	mu      sync.Mutex
	batches []journal.Batch
	fail    error // when non-nil, RecordBatch returns it
}

func (r *memRecorder) RecordBatch(b journal.Batch) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil {
		return r.fail
	}
	cp := b
	cp.Samples = append([]journal.SampleRecord(nil), b.Samples...)
	cp.Unmeasured = append([]int64(nil), b.Unmeasured...)
	r.batches = append(r.batches, cp)
	return nil
}

func (r *memRecorder) samples() []journal.SampleRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []journal.SampleRecord
	for _, b := range r.batches {
		out = append(out, b.Samples...)
	}
	return out
}

func resumeSpace(t *testing.T) *param.Space {
	t.Helper()
	space, err := param.NewSpace(
		param.Grid("x", 0, 3, 25),
		param.Grid("y", 0, 3, 25),
		param.Levels("z", 1, 2, 4),
	)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

func resumeEval() Evaluator {
	return EvaluatorFunc(func(cfg param.Config) []float64 {
		return []float64{
			cfg[0] + 0.3*math.Sin(4*cfg[1]) + 0.1*cfg[2],
			cfg[1] + 0.3*math.Cos(3*cfg[0]),
		}
	})
}

func resumeOpts(rec *memRecorder) Options {
	return Options{
		Objectives:    2,
		RandomSamples: 30,
		MaxIterations: 3,
		MaxBatch:      15,
		PoolCap:       400, // below the space size, so pool draws consume the rng
		Seed:          7,
		Workers:       2,
		Journal:       rec,
	}
}

func sampleKeys(samples []Sample) []int64 {
	out := make([]int64, len(samples))
	for i, s := range samples {
		out[i] = s.Index
	}
	return out
}

func recordKeys(recs []journal.SampleRecord) []int64 {
	out := make([]int64, len(recs))
	for i, s := range recs {
		out[i] = s.Index
	}
	return out
}

// journalPrefix returns the records that hold a journal's first n samples:
// whole records, then the first samples of the one a crash cut.
func journalPrefix(batches []journal.Batch, n int) []journal.Batch {
	var out []journal.Batch
	for _, b := range batches {
		if n <= 0 {
			break
		}
		if len(b.Samples) > n {
			b.Samples = b.Samples[:n:n]
		}
		n -= len(b.Samples)
		out = append(out, b)
	}
	return out
}

// noModelWork fails t unless the run fit and predicted nothing in any of its
// active-learning rounds, of which it ran at least one: every round was
// taken as journaled.
func noModelWork(t *testing.T, res *Result) {
	t.Helper()
	rounds := 0
	for _, it := range res.Iterations {
		if it.Iteration == 0 {
			continue
		}
		rounds++
		if it.FitTime != 0 || it.PredictTime != 0 {
			t.Errorf("round %d: fit %v, predict %v; want a fast-forward with neither", it.Iteration, it.FitTime, it.PredictTime)
		}
	}
	if rounds == 0 {
		t.Error("the run had no active-learning round")
	}
}

// A run resumed from a replay of any journaled prefix must be
// byte-identical to the uninterrupted run — same sample order, same
// objectives, same front — and must journal exactly the suffix it
// actually measured.
func TestResumeReplayByteIdentical(t *testing.T) {
	space := resumeSpace(t)
	ref := &memRecorder{}
	refRes, err := Run(space, resumeEval(), resumeOpts(ref))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(ref.batches) < 2 {
		t.Fatalf("reference journaled %d batches; test needs ≥ 2", len(ref.batches))
	}
	refSamples := ref.samples()
	if !reflect.DeepEqual(recordKeys(refSamples), sampleKeys(refRes.Samples)) {
		t.Fatal("journal order differs from result sample order")
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		// Cut the journal at a random evaluation count — including
		// mid-batch, which models a partially journaled batch (the
		// cancellation path journals completed samples of an interrupted
		// batch).
		cut := 1 + rng.Intn(len(refSamples)-1)
		rec := &memRecorder{}
		opts := resumeOpts(rec)
		opts.Replay = journalPrefix(ref.batches, cut)
		res, err := Run(space, resumeEval(), opts)
		if err != nil {
			t.Fatalf("cut=%d: resumed run: %v", cut, err)
		}
		if !reflect.DeepEqual(sampleKeys(res.Samples), sampleKeys(refRes.Samples)) {
			t.Fatalf("cut=%d: resumed sample order differs from reference", cut)
		}
		for i, s := range res.Samples {
			if !reflect.DeepEqual(s.Objs, refRes.Samples[i].Objs) {
				t.Fatalf("cut=%d: sample %d objectives differ: %v vs %v",
					cut, i, s.Objs, refRes.Samples[i].Objs)
			}
		}
		if !reflect.DeepEqual(res.Front, refRes.Front) {
			t.Fatalf("cut=%d: resumed front differs from reference", cut)
		}
		if res.Converged != refRes.Converged {
			t.Fatalf("cut=%d: converged = %v, want %v", cut, res.Converged, refRes.Converged)
		}
		// The resumed run must have journaled exactly the measurements the
		// reference made after the cut: replayed ones are never re-recorded.
		wantSuffix := recordKeys(refSamples[cut:])
		gotSuffix := recordKeys(rec.samples())
		if !reflect.DeepEqual(gotSuffix, wantSuffix) {
			t.Fatalf("cut=%d: resumed run journaled %d samples, want the %d-sample suffix",
				cut, len(gotSuffix), len(wantSuffix))
		}
	}
}

// A fully replayed journal reconstructs the run without a single backend
// call.
func TestResumeFullReplayNeverEvaluates(t *testing.T) {
	space := resumeSpace(t)
	ref := &memRecorder{}
	refRes, err := Run(space, resumeEval(), resumeOpts(ref))
	if err != nil {
		t.Fatal(err)
	}
	rec := &memRecorder{}
	opts := resumeOpts(rec)
	opts.Replay = ref.batches
	calls := 0
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		calls++
		return resumeEval().Evaluate(cfg)
	})
	res, err := Run(space, eval, opts)
	if err != nil {
		t.Fatalf("full replay: %v", err)
	}
	if calls != 0 {
		t.Errorf("full replay called the evaluator %d times", calls)
	}
	if len(rec.batches) != 0 {
		t.Errorf("full replay journaled %d batches, want 0", len(rec.batches))
	}
	if !reflect.DeepEqual(res.Front, refRes.Front) {
		t.Error("fully replayed front differs from reference")
	}
	noModelWork(t, res)
}

// Replay composes with the memo-cache: replayed indices bypass it (no
// hits, no misses), live ones still memoize.
func TestResumeWithCache(t *testing.T) {
	space := resumeSpace(t)
	ref := &memRecorder{}
	refRes, err := Run(space, resumeEval(), resumeOpts(ref))
	if err != nil {
		t.Fatal(err)
	}
	refSamples := ref.samples()
	cut := len(refSamples) / 2
	opts := resumeOpts(&memRecorder{})
	opts.Replay = journalPrefix(ref.batches, cut)
	opts.Cache = NewEvalCache()
	res, err := Run(space, resumeEval(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Front, refRes.Front) {
		t.Error("resumed-with-cache front differs from reference")
	}
	if res.CacheMisses != len(refSamples)-cut {
		t.Errorf("cache misses = %d, want %d (live evaluations only)",
			res.CacheMisses, len(refSamples)-cut)
	}
}

// A journal write failure must fail the run rather than silently dropping
// durability, while retaining the measurements of the failed batch.
func TestJournalFailureFailsRun(t *testing.T) {
	space := resumeSpace(t)
	rec := &memRecorder{fail: errTest}
	res, err := Run(space, resumeEval(), resumeOpts(rec))
	if err == nil {
		t.Fatal("run with failing journal succeeded")
	}
	if res == nil || len(res.Samples) == 0 {
		t.Error("measurements of the failed batch were discarded")
	}
}

// fileRecorder journals to a real journal file, so a test can resume from
// what actually reached the disk.
type fileRecorder struct{ w *journal.Writer }

func (r fileRecorder) RecordBatch(b journal.Batch) error { return r.w.Batch(b) }

// sameSamples compares two sample lists to the bit: NaN objectives included,
// which reflect.DeepEqual would call unequal to themselves.
func sameSamples(a, b []Sample) bool {
	return slices.EqualFunc(a, b, func(x, y Sample) bool {
		return x.Index == y.Index && x.Iteration == y.Iteration && x.ActiveLearning == y.ActiveLearning &&
			slices.EqualFunc(x.Objs, y.Objs, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	})
}

// An invalid measurement (a NaN objective) is a measurement: it is journaled
// and spilled as null, so a run that met some completes with both durable
// layers on, replays from its on-disk journal to the same samples, invalid
// set and front without one evaluator call, and finds the invalid entries
// still memoized when the spill directory is reopened.
func TestResumeAcrossNaNBatch(t *testing.T) {
	space := resumeSpace(t)
	dir := t.TempDir()
	calls := 0
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		calls++
		objs := resumeEval().Evaluate(cfg)
		if sum := cfg[0] + cfg[1]; sum > 3 && sum <= 4 {
			objs[1] = math.NaN()
		}
		return objs
	})
	jpath := filepath.Join(dir, "journal.jsonl")
	w, err := journal.Create(jpath, journal.Header{RunID: "nan"})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewEvalCacheDir(filepath.Join(dir, "cache"))
	opts := resumeOpts(nil)
	opts.Workers = 1 // calls is a plain counter
	opts.Journal = fileRecorder{w}
	opts.Cache = cache
	ref, err := Run(space, eval, opts)
	if err != nil {
		t.Fatalf("run with NaN objectives and both durable layers: %v", err)
	}
	if len(ref.Invalid) == 0 {
		t.Fatal("no invalid measurement; the scenario is not exercised")
	}
	if n := cache.SpillErrors(); n != 0 {
		t.Fatalf("%d spill errors: the NaN was not spilled", n)
	}
	w.Close()
	cache.Close()

	rec, err := journal.Recover(jpath)
	if err != nil {
		t.Fatal(err)
	}
	calls = 0
	replayed := &memRecorder{}
	opts = resumeOpts(replayed)
	opts.Workers = 1
	opts.Replay = rec.Replay()
	res, err := Run(space, eval, opts)
	if err != nil {
		t.Fatalf("replaying the journal: %v", err)
	}
	if calls != 0 || len(replayed.batches) != 0 {
		t.Errorf("full replay made %d evaluator calls and journaled %d batches, want none", calls, len(replayed.batches))
	}
	if !sameSamples(res.Samples, ref.Samples) || !sameSamples(res.Invalid, ref.Invalid) {
		t.Error("replayed samples or invalid set differ from the original run")
	}
	if !reflect.DeepEqual(res.Front, ref.Front) {
		t.Error("replayed front differs from the original run")
	}
	noModelWork(t, res)

	reopened := NewEvalCacheDir(filepath.Join(dir, "cache"))
	defer reopened.Close()
	inv := ref.Invalid[0]
	objs, hit, err := fetchOne(context.Background(), reopened, SpaceFingerprint(space, 2), 2, inv.Index, nil)
	if err != nil || !hit || !math.IsNaN(objs[1]) || objs[0] != inv.Objs[0] {
		t.Errorf("reopened spill served %v (hit=%v, err=%v) for the invalid entry %v", objs, hit, err, inv.Objs)
	}
}
