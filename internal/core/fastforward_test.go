package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/forest"
	"repro/internal/journal"
	"repro/internal/param"
)

// ffShape is one seeded run the fast-forward test cuts and resumes: opts
// builds its options around a journal recorder, with the evaluation path
// (an Evaluator, or a lossy Backend) the reference and every resumed run
// share.
type ffShape struct {
	name  string
	space *param.Space
	eval  Evaluator
	opts  func(rec *memRecorder) Options
}

func ffShapes(t *testing.T) []ffShape {
	small := func(rec *memRecorder, poolCap int) Options {
		o := resumeOpts(rec)
		o.RandomSamples, o.MaxBatch, o.PoolCap, o.Forest.Trees = 20, 8, poolCap, 8
		return o
	}
	space := resumeSpace(t)
	bench := benchSpace(t)
	constrained := constrainedSpace(t)
	return []ffShape{
		// Converges in its sixth round, which selects nothing, journals
		// nothing and so is always recomputed.
		{"enumerable", space, resumeEval(), func(rec *memRecorder) Options {
			o := small(rec, 0)
			o.MaxIterations = 8
			return o
		}},
		{"subsampled", space, resumeEval(), func(rec *memRecorder) Options { return small(rec, 400) }},
		{"constrained", constrained, benchEval(constrained), func(rec *memRecorder) Options { return small(rec, 0) }},
		{"feasibility", bench, nanBelt(benchEval(bench)), func(rec *memRecorder) Options {
			o := small(rec, 300)
			o.Strategy = Strategy{Sampler: "prior", Feasibility: true, Selector: "acquisition"}
			o.probes = 64
			return o
		}},
		{"degraded", space, nil, func(rec *memRecorder) Options {
			o := small(rec, 400)
			o.MaxUnmeasuredFraction = 0.9
			o.Backend = &dropBackend{fn: degradeEval, drop: lossyDrop}
			return o
		}},
	}
}

// journalCut is a journal a run was interrupted at: records holds the
// whole batches, plus the first samples of the one in flight when cut
// mid-batch — the completed part of a cancelled batch, which is journaled
// without its unmeasured entries.
type journalCut struct {
	name    string
	records []journal.Batch
	whole   map[int]bool // the rounds records holds in full
	split   int          // the round cut mid-batch, -1 when none
}

// cutsOf cuts a journal at every record boundary and at every sample count
// inside a record.
func cutsOf(batches []journal.Batch) []journalCut {
	var cuts []journalCut
	whole := map[int]bool{}
	for i, b := range batches {
		cuts = append(cuts, journalCut{fmt.Sprintf("records=%d", i), batches[:i:i], maps.Clone(whole), -1})
		for m := 1; m < len(b.Samples); m++ {
			part := b
			part.Samples, part.Unmeasured = b.Samples[:m:m], nil
			cuts = append(cuts, journalCut{fmt.Sprintf("records=%d+%d", i, m), append(batches[:i:i], part), maps.Clone(whole), b.Iteration})
		}
		if b.Iteration > 0 {
			whole[b.Iteration] = true
		}
	}
	return append(cuts, journalCut{fmt.Sprintf("records=%d", len(batches)), batches, whole, -1})
}

// resumeFrom runs the shape over a journal's records. It returns the result
// and what the run journaled.
func (sh ffShape) resumeFrom(t *testing.T, records []journal.Batch) (*Result, *memRecorder) {
	t.Helper()
	rec := &memRecorder{}
	opts := sh.opts(rec)
	opts.Replay = records
	res, err := Run(sh.space, sh.eval, opts)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return res, rec
}

// forestsOf returns a result's final forests, failing the test when they
// cannot be fit.
func forestsOf(t *testing.T, res *Result) []*forest.Forest {
	t.Helper()
	forests, err := res.Forests()
	if err != nil {
		t.Fatalf("final forests: %v", err)
	}
	return forests
}

// forestDigest hashes what a result's forests decided: every design-space
// point's prediction, the feature importances and the OOB estimate.
func forestDigest(t *testing.T, space *param.Space, forests []*forest.Forest) string {
	t.Helper()
	grid, err := spaceGrid(space)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	out := make([]float64, grid.Cells())
	for _, f := range forests {
		f.PredictGrid(grid, out, 1)
		for _, v := range out {
			put(v)
		}
		for _, v := range f.FeatureImportance() {
			put(v)
		}
		put(f.OOBError())
		put(float64(f.OOBSamples()))
	}
	return fmt.Sprintf("%d %x", len(forests), h.Sum(nil))
}

// untimed renders a round's statistics without its wall-clock timings.
func untimed(it IterationStats) string {
	it.FitTime, it.EncodeTime, it.PredictTime, it.EvalTime = 0, 0, 0, 0
	return fmt.Sprintf("%+v", it)
}

// sameResult reports how got differs from the uninterrupted want, or "".
func sameResult(t *testing.T, space *param.Space, got, want *Result) string {
	switch {
	case !sameSamples(got.Samples, want.Samples):
		return "samples differ"
	case !sameSamples(got.Invalid, want.Invalid):
		return "invalid samples differ"
	case fmt.Sprint(got.Front) != fmt.Sprint(want.Front):
		return "front differs"
	case fmt.Sprint(got.RandomFront) != fmt.Sprint(want.RandomFront):
		return "random front differs"
	case got.Converged != want.Converged:
		return fmt.Sprintf("converged = %v, want %v", got.Converged, want.Converged)
	case got.CacheHits != want.CacheHits || got.CacheMisses != want.CacheMisses || got.Unmeasured != want.Unmeasured:
		return fmt.Sprintf("totals %d/%d/%d, want %d/%d/%d", got.CacheHits, got.CacheMisses, got.Unmeasured,
			want.CacheHits, want.CacheMisses, want.Unmeasured)
	case len(got.Iterations) != len(want.Iterations):
		return fmt.Sprintf("%d rounds, want %d", len(got.Iterations), len(want.Iterations))
	case forestDigest(t, space, forestsOf(t, got)) != forestDigest(t, space, forestsOf(t, want)):
		return "forests differ"
	}
	for i := range got.Iterations {
		if g, w := untimed(got.Iterations[i]), untimed(want.Iterations[i]); g != w {
			return fmt.Sprintf("round %d statistics\n%s\nwant\n%s", i+1, g, w)
		}
	}
	return ""
}

// checkRounds checks which rounds a resumed run fast-forwarded: exactly the
// whole ones, with a PredictTime of 0 and, the last one included, a FitTime
// of 0; every other round predicted.
func checkRounds(t *testing.T, res *Result, whole map[int]bool) {
	t.Helper()
	for _, it := range res.Iterations {
		if ff := it.PredictTime == 0; ff != whole[it.Iteration] {
			t.Errorf("round %d: PredictTime %v, journaled whole %v", it.Iteration, it.PredictTime, whole[it.Iteration])
		}
		if whole[it.Iteration] && it.FitTime != 0 {
			t.Errorf("round %d: journaled whole, but fit its forests in %v", it.Iteration, it.FitTime)
		}
	}
}

// TestFastForwardByteIdentical cuts each shape's reference journal at every
// record boundary and every sample count and resumes from the cut. Every
// resumed run must equal the uninterrupted one — samples, invalid set,
// fronts, totals, round statistics (timings aside) and the final forests,
// which Forests fits on demand after a fast-forwarded last round — while
// fast-forwarding, with no fit, exactly the rounds the cut holds whole. A run cut
// mid-round journals the round's remainder as a second record; resuming
// again from both must recompute that round, and only it, and still match.
func TestFastForwardByteIdentical(t *testing.T) {
	for _, sh := range ffShapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			ref := &memRecorder{}
			want, err := Run(sh.space, sh.eval, sh.opts(ref))
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if len(want.Iterations) < 2 {
				t.Fatalf("reference ran %d rounds; the test needs ≥ 2", len(want.Iterations))
			}
			switch {
			case sh.name == "enumerable" && !want.Converged:
				t.Fatal("the run did not converge; a round that selects nothing is not exercised")
			case sh.name == "feasibility" && len(want.Invalid) == 0:
				t.Fatal("no invalid measurement; the classifier filters nothing")
			case sh.name == "degraded" && want.Unmeasured == 0:
				t.Fatal("nothing left unmeasured; the skips are not exercised")
			}
			for _, it := range want.Iterations {
				if it.PredictTime == 0 {
					t.Fatalf("uninterrupted round %d reports no PredictTime", it.Iteration)
				}
			}
			for _, cut := range cutsOf(ref.batches) {
				got, rec := sh.resumeFrom(t, cut.records)
				if diff := sameResult(t, sh.space, got, want); diff != "" {
					t.Fatalf("%s: %s", cut.name, diff)
				}
				checkRounds(t, got, cut.whole)
				if cut.split < 0 {
					continue
				}
				again, rec2 := sh.resumeFrom(t, append(cut.records, rec.batches...))
				if diff := sameResult(t, sh.space, again, want); diff != "" {
					t.Fatalf("%s, resumed again: %s", cut.name, diff)
				}
				if len(rec2.batches) != 0 {
					t.Errorf("%s, resumed again: journaled %d batches, want none", cut.name, len(rec2.batches))
				}
				// Every round that journaled a batch is whole now, but the split one.
				wholeAgain := map[int]bool{}
				for _, it := range want.Iterations {
					wholeAgain[it.Iteration] = it.Iteration != cut.split && it.NewSamples+it.Unmeasured > 0
				}
				checkRounds(t, again, wholeAgain)
			}
		})
	}
}

// A resumed run that fast-forwarded its last round fits the final forests
// on the first Forests call, once, however many goroutines ask at the same
// time, and they are the uninterrupted run's.
func TestForestsFitOnceOnDemand(t *testing.T) {
	sh := ffShapes(t)[1] // subsampled: runs every round, so the journal holds the last whole
	ref := &memRecorder{}
	want, err := Run(sh.space, sh.eval, sh.opts(ref))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sh.resumeFrom(t, ref.batches)
	if last := got.Iterations[len(got.Iterations)-1]; last.PredictTime != 0 {
		t.Fatalf("the last round (%d) was recomputed", last.Iteration)
	}
	forests := make([][]*forest.Forest, 4)
	var wg sync.WaitGroup
	for i := range forests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if forests[i], err = got.Forests(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, f := range forests[1:] {
		if len(f) == 0 || &f[0] != &forests[0][0] {
			t.Fatal("concurrent Forests calls returned different fits")
		}
	}
	if forestDigest(t, sh.space, forests[0]) != forestDigest(t, sh.space, forestsOf(t, want)) {
		t.Fatal("the forests fit on demand differ from the uninterrupted run's")
	}
}

// replayPlan maps every journaled sample's index to its objectives, counts
// every journaled skip of an index, across batches, keeps a round for
// fast-forwarding only when one record carrying a Round holds it, and sums
// each phase's memo-cache counts over its records.
func TestReplayPlan(t *testing.T) {
	rd := &journal.Round{Selected: 1}
	sample := func(idx int64) []journal.SampleRecord {
		return []journal.SampleRecord{{Index: idx, Objs: []float64{float64(idx), -float64(idx)}}}
	}
	p := replayPlan([]journal.Batch{
		{Iteration: 0, Samples: sample(1), Unmeasured: []int64{7, 9}, Misses: 3},
		{Iteration: 1, Active: true, Unmeasured: []int64{7}, Round: rd, Misses: 1},
		{Iteration: 2, Active: true, Samples: sample(2), Round: rd, Hits: 1},
		{Iteration: 2, Active: true, Samples: sample(3), Round: rd, Misses: 1},
		{Iteration: 3, Active: true, Samples: sample(4)},
	})
	skips, rounds, lookups := p.skips, p.rounds, p.lookups
	wantObjs := map[int64][]float64{1: {1, -1}, 2: {2, -2}, 3: {3, -3}, 4: {4, -4}}
	if !maps.EqualFunc(p.objs, wantObjs, slices.Equal[[]float64]) {
		t.Errorf("objs = %v, want %v", p.objs, wantObjs)
	}
	if !maps.Equal(skips, map[int64]int{7: 2, 9: 1}) {
		t.Errorf("skips = %v, want map[7:2 9:1]", skips)
	}
	if len(rounds) != 1 || rounds[1] == nil || rounds[1].Round != rd {
		t.Errorf("rounds = %v, want round 1 only", rounds)
	}
	want := map[int]batchOutcome{0: {misses: 3}, 1: {misses: 1}, 2: {hits: 1, misses: 1}, 3: {}}
	if !maps.Equal(lookups, want) {
		t.Errorf("lookups = %v, want %v", lookups, want)
	}
}

// BenchmarkResumeFastForward times what a restarted daemon, and the
// ledger's core.replay_s probe, ask of the engine: a run journaled in memory
// is resumed from its journal's records, so every round is fast-forwarded
// and nothing is measured.
func BenchmarkResumeFastForward(b *testing.B) {
	space := benchSpace(b)
	rec := &memRecorder{}
	opts := Options{Objectives: 2, RandomSamples: 500, MaxIterations: 5, MaxBatch: 200, Seed: 3,
		Forest: forest.Options{Trees: 16}, Journal: rec}
	want, err := Run(space, benchEval(space), opts)
	if err != nil {
		b.Fatal(err)
	}
	opts.Journal = nil
	opts.Replay = rec.batches
	unmeasured := EvaluatorFunc(func(param.Config) []float64 {
		b.Fatal("a resumed run measured a configuration")
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := Run(space, unmeasured, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(got.Samples) != len(want.Samples) {
			b.Fatalf("resumed to %d samples, want %d", len(got.Samples), len(want.Samples))
		}
	}
}
