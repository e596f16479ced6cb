package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/param"
)

// fingerprintRun renders every sample and front point of a result into one
// string, so two runs can be compared byte-for-byte.
func fingerprintRun(res *Result) string {
	out := ""
	for _, s := range res.Samples {
		out += fmt.Sprintf("s %d %v %v %d\n", s.Index, s.Config, s.Objs, s.Iteration)
	}
	for _, p := range res.Front {
		out += fmt.Sprintf("f %d %v\n", p.ID, p.Objs)
	}
	for _, p := range res.RandomFront {
		out += fmt.Sprintf("r %d %v\n", p.ID, p.Objs)
	}
	return out
}

func TestSeededRunsAreByteIdentical(t *testing.T) {
	// Regression test for the predictionPool map-iteration bug: identical
	// seeds must yield identical sample sequences and fronts, including on
	// the subsampled-pool path where evaluated indices are appended.
	space := benchSpace(t)
	for _, poolCap := range []int{0, 100} { // exhaustive and subsampled pools
		opts := Options{
			Objectives:    2,
			RandomSamples: 40,
			MaxIterations: 3,
			MaxBatch:      30,
			PoolCap:       poolCap,
			Seed:          23,
		}
		var first string
		for trial := 0; trial < 3; trial++ {
			res, err := Run(space, benchEval(space), opts)
			if err != nil {
				t.Fatal(err)
			}
			fp := fingerprintRun(res)
			if trial == 0 {
				first = fp
			} else if fp != first {
				t.Fatalf("poolCap=%d: run %d differs from run 0 with identical seed", poolCap, trial)
			}
		}
	}
}

func TestPredictionPoolAppendsUndrawnEvaluated(t *testing.T) {
	// A subsampled pool is the draw, in draw order, then every evaluated
	// index the draw missed, ascending; the rng is consumed by the draw alone.
	space := benchSpace(t)
	for _, n := range []int{0, 1, 700, 4799} {
		draw := space.SampleIndices(rand.New(rand.NewSource(5)), n)
		evaluated := map[int64]int{4799: 0, 3: 1, 0: 2, 1200: 3}
		for i, idx := range draw {
			if i%3 == 0 {
				evaluated[idx] = i
			}
		}
		want := slices.Clone(draw)
		var extra []int64
		for idx := range evaluated {
			if !slices.Contains(draw, idx) {
				extra = append(extra, idx)
			}
		}
		slices.Sort(extra)
		want = append(want, extra...)

		rng := rand.New(rand.NewSource(5))
		got := predictionPool(space, rng, Strategy{}, n, evaluated)
		ref := rand.New(rand.NewSource(5))
		space.SampleIndices(ref, n)
		if !slices.Equal(got, want) || rng.Int63() != ref.Int63() {
			t.Fatalf("n=%d: pool of %d differs from draw+sorted extras (%d)", n, len(got), len(want))
		}
	}
}

func TestIterationTimingsPopulated(t *testing.T) {
	space := benchSpace(t)
	var bootstrap IterationStats
	res, err := Run(space, benchEval(space), Options{
		Objectives:    2,
		RandomSamples: 40,
		MaxIterations: 2,
		Seed:          29,
		OnIteration: func(s IterationStats) {
			if s.Iteration == 0 {
				bootstrap = s
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bootstrap.EvalTime <= 0 {
		t.Fatalf("bootstrap EvalTime = %v, want > 0", bootstrap.EvalTime)
	}
	if bootstrap.FitTime != 0 || bootstrap.PredictTime != 0 {
		t.Fatalf("bootstrap carries AL-phase timings: %+v", bootstrap)
	}
	for _, it := range res.Iterations {
		if it.FitTime <= 0 {
			t.Fatalf("iteration %d FitTime = %v, want > 0", it.Iteration, it.FitTime)
		}
		if it.PredictTime <= 0 {
			t.Fatalf("iteration %d PredictTime = %v, want > 0", it.Iteration, it.PredictTime)
		}
	}
}

func TestByIndexLazyMap(t *testing.T) {
	res := &Result{Samples: []Sample{
		{Index: 7, Objs: []float64{1}},
		{Index: 3, Objs: []float64{2}},
		{Index: 11, Objs: []float64{3}},
	}}
	if s, ok := res.ByIndex(3); !ok || s.Objs[0] != 2 {
		t.Fatalf("ByIndex(3) = %+v, %v", s, ok)
	}
	if _, ok := res.ByIndex(99); ok {
		t.Fatal("ByIndex found a missing index")
	}
	// The map must refresh when samples are appended after the first call.
	res.Samples = append(res.Samples, Sample{Index: 42, Objs: []float64{4}})
	if s, ok := res.ByIndex(42); !ok || s.Objs[0] != 4 {
		t.Fatalf("ByIndex missed an appended sample: %+v, %v", s, ok)
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	space := benchSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, space, benchEval(space), Options{Objectives: 2, RandomSamples: 20})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run should still return the (empty) partial result")
	}
	if len(res.Samples) != 0 {
		t.Fatalf("cancelled-before-start run evaluated %d samples", len(res.Samples))
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	// Cancel from inside the evaluator after a handful of calls: RunContext
	// must return promptly with the partial result rather than running the
	// remaining iterations.
	space := benchSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		if calls.Add(1) == 50 {
			cancel()
		}
		return benchEval(space).Evaluate(cfg)
	})
	start := time.Now()
	res, err := RunContext(ctx, space, eval, Options{
		Objectives:    2,
		RandomSamples: 40,
		MaxIterations: 50,
		MaxBatch:      30,
		Seed:          5,
		Workers:       2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("expected partial result")
	}
	// The bootstrap (40 calls) completes; cancellation lands in an AL
	// batch, whose completed evaluations are retained — so the partial
	// result has at least the bootstrap plus whatever finished.
	if len(res.Samples) < 40 {
		t.Fatalf("partial result has %d samples, want ≥ the 40 bootstrap samples", len(res.Samples))
	}
	if int(calls.Load()) < len(res.Samples) {
		t.Fatalf("%d samples from %d evaluator calls", len(res.Samples), calls.Load())
	}
	for _, s := range res.Samples {
		if len(s.Objs) != 2 {
			t.Fatalf("retained sample %d has objectives %v", s.Index, s.Objs)
		}
	}
	if len(res.Front) == 0 {
		t.Fatal("partial result should still carry a front over completed samples")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestRunContextCancelSkipsRemainingEvaluations(t *testing.T) {
	// Once cancelled, no further evaluator calls may start: with a single
	// worker and a cancel on the very first call, the call count must stay
	// far below the requested bootstrap size.
	space := benchSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		if calls.Add(1) == 1 {
			cancel()
		}
		return benchEval(space).Evaluate(cfg)
	})
	_, err := RunContext(ctx, space, eval, Options{
		Objectives: 2, RandomSamples: 200, Workers: 1, Seed: 1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n > 2 {
		t.Fatalf("evaluator called %d times after cancellation", n)
	}
}

func TestEvalCacheHitsAcrossRuns(t *testing.T) {
	space := benchSpace(t)
	cache := NewEvalCache()
	var calls atomic.Int64
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		calls.Add(1)
		return benchEval(space).Evaluate(cfg)
	})
	opts := Options{
		Objectives:    2,
		RandomSamples: 40,
		MaxIterations: 2,
		Seed:          31,
		Cache:         cache,
	}
	r1, err := Run(space, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHits != 0 {
		t.Fatalf("cold cache reported %d hits", r1.CacheHits)
	}
	if r1.CacheMisses != len(r1.Samples) {
		t.Fatalf("cold cache misses = %d, want %d", r1.CacheMisses, len(r1.Samples))
	}
	callsAfterFirst := calls.Load()

	// Same space, same seed: every evaluation must come from the cache.
	r2, err := Run(space, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheHits != len(r2.Samples) {
		t.Fatalf("warm cache hits = %d, want %d", r2.CacheHits, len(r2.Samples))
	}
	if calls.Load() != callsAfterFirst {
		t.Fatalf("warm run called the evaluator %d more times", calls.Load()-callsAfterFirst)
	}
	if fingerprintRun(r1) != fingerprintRun(r2) {
		t.Fatal("cached run diverged from the uncached run")
	}

	// Per-iteration counters must total the run counters.
	hits := 0
	for _, it := range r2.Iterations {
		hits += it.CacheHits
	}
	if bootHits := r2.CacheHits - hits; bootHits != 40 {
		t.Fatalf("bootstrap cache hits = %d, want 40", bootHits)
	}

	// A different seed still reuses overlapping configurations.
	opts.Seed = 32
	r3, err := Run(space, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHits == 0 {
		t.Fatal("expected some cache hits on a different seed over the same space")
	}
}

// fetchOne resolves one index through a view of the cache's namespace for
// objectives-long vectors, whose backend measures by calling fn (nil: it
// must not be called), reporting whether the value was a cache hit.
func fetchOne(ctx context.Context, cache *EvalCache, space string, objectives int, idx int64, fn func() []float64) (objs []float64, hit bool, err error) {
	backend := &LocalBackend{Eval: EvaluatorFunc(func(param.Config) []float64 { return fn() })}
	res, bo, err := cache.view(space, objectives, math.MaxInt64, backend).fetchBatch(ctx, []int64{idx}, []param.Config{nil})
	return res[0], bo.hits == 1, err
}

func TestEvalCacheCopiesObjectives(t *testing.T) {
	ctx := context.Background()
	cache := NewEvalCache()
	objs := []float64{1, 2}
	got, hit, err := fetchOne(ctx, cache, "test-space", 2, 7, func() []float64 { return objs })
	if err != nil || hit {
		t.Fatalf("first fetch: hit=%v err=%v", hit, err)
	}
	objs[0] = 99 // caller mutates its slice after the cache stored it
	got, hit, err = fetchOne(ctx, cache, "test-space", 2, 7, nil)
	if err != nil || !hit {
		t.Fatalf("second fetch: hit=%v err=%v", hit, err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("cache returned mutated objectives %v", got)
	}
	got[1] = -5 // caller mutates the returned slice
	again, _, _ := fetchOne(ctx, cache, "test-space", 2, 7, nil)
	if again[1] != 2 {
		t.Fatalf("cache content corrupted via returned slice: %v", again)
	}
	if cache.Hits() != 2 || cache.Misses() != 1 || cache.Len() != 1 {
		t.Fatalf("counter state hits=%d misses=%d len=%d", cache.Hits(), cache.Misses(), cache.Len())
	}

	// Entries are namespaced per space: the same index in another space
	// misses and stays isolated.
	if _, hit, _ := fetchOne(ctx, cache, "other-space", 1, 7, func() []float64 { return []float64{8} }); hit {
		t.Fatal("index leaked across space namespaces")
	}
	if back, _, _ := fetchOne(ctx, cache, "test-space", 2, 7, nil); back[0] != 1 {
		t.Fatalf("other-space store clobbered the entry: %v", back)
	}
	if cache.Len() != 2 {
		t.Fatalf("Len = %d, want one entry per namespace", cache.Len())
	}
}

func TestEvalCacheSingleflight(t *testing.T) {
	// Concurrent sessions missing on the same configuration must evaluate
	// it once: followers wait for the leader's measurement.
	cache := NewEvalCache()
	space := param.MustSpace(param.Grid("x", 0, 1, 25))
	var calls atomic.Int64
	perIdx := make([]atomic.Int64, 25)
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		calls.Add(1)
		idx, _ := space.IndexOf(cfg)
		perIdx[idx].Add(1)
		time.Sleep(time.Millisecond) // widen the race window
		return []float64{cfg[0]}
	})
	opts := Options{Objectives: 1, RandomSamples: 25, MaxIterations: 1, Cache: cache, Seed: 1, Workers: 4}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(space, eval, opts); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := range perIdx {
		if n := perIdx[i].Load(); n > 1 {
			t.Fatalf("configuration %d evaluated %d times across concurrent sessions", i, n)
		}
	}
	if calls.Load() > 25 {
		t.Fatalf("%d evaluator calls for a 25-point space across 4 concurrent sessions", calls.Load())
	}

	// A waiter whose context is cancelled must not hang on the leader.
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	go fetchOne(context.Background(), cache, "sf-space", 1, 3, func() []float64 {
		close(started)
		<-release
		return []float64{1}
	})
	<-started
	cancel()
	if _, _, err := fetchOne(ctx, cache, "sf-space", 1, 3, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
}

func TestEvalCacheIsolatesSpaces(t *testing.T) {
	// A cache carried to a run over a different space must not serve the
	// old space's objectives for coinciding indices.
	cache := NewEvalCache()
	spaceA := param.MustSpace(param.Grid("x", 0, 1, 10))
	spaceB := param.MustSpace(param.Grid("x", 10, 20, 10))
	evalA := EvaluatorFunc(func(cfg param.Config) []float64 { return []float64{cfg[0]} })
	evalB := EvaluatorFunc(func(cfg param.Config) []float64 { return []float64{cfg[0]} })

	if _, err := Run(spaceA, evalA, Options{Objectives: 1, RandomSamples: 10, MaxIterations: 1, Cache: cache, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	resB, err := Run(spaceB, evalB, Options{Objectives: 1, RandomSamples: 10, MaxIterations: 1, Cache: cache, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resB.CacheHits != 0 {
		t.Fatalf("stale cache served %d hits across spaces", resB.CacheHits)
	}
	for _, s := range resB.Samples {
		if s.Objs[0] < 10 {
			t.Fatalf("sample %d carries spaceA objective %v", s.Index, s.Objs)
		}
	}
}

func TestEvalCacheConcurrentRunsDifferentSpaces(t *testing.T) {
	// The contamination scenario: two runs over different spaces share one
	// cache concurrently. Namespacing must keep every sample's objectives
	// consistent with its own space's evaluator.
	cache := NewEvalCache()
	spaceA := param.MustSpace(param.Grid("x", 0, 1, 50))
	spaceB := param.MustSpace(param.Grid("x", 100, 200, 50))
	evalFor := func(space *param.Space) Evaluator {
		return EvaluatorFunc(func(cfg param.Config) []float64 { return []float64{cfg[0]} })
	}
	var wg sync.WaitGroup
	check := func(space *param.Space, lo, hi float64, seed int64) {
		defer wg.Done()
		for r := 0; r < 3; r++ {
			res, err := Run(space, evalFor(space), Options{
				Objectives: 1, RandomSamples: 30, MaxIterations: 2, Cache: cache, Seed: seed,
			})
			if err != nil {
				t.Error(err)
				return
			}
			for _, s := range res.Samples {
				if s.Objs[0] < lo || s.Objs[0] > hi {
					t.Errorf("space [%g,%g] sample %d got foreign objective %v", lo, hi, s.Index, s.Objs)
					return
				}
			}
		}
	}
	wg.Add(2)
	go check(spaceA, 0, 1, 1)
	go check(spaceB, 100, 200, 1)
	wg.Wait()
}

func TestZeroValueOptionsDefaults(t *testing.T) {
	// A zero-valued Options (Objectives aside) must not stall the loop or
	// panic thin: MaxBatch, PoolCap, RandomSamples, and Workers all default.
	o := Options{MaxBatch: -3, PoolCap: -1, Workers: -2}.withDefaults()
	if o.MaxBatch != 300 || o.PoolCap != 200_000 || o.RandomSamples != 200 || o.MaxIterations != 6 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if o.Workers < 1 {
		t.Fatalf("Workers defaulted to %d", o.Workers)
	}

	space := param.MustSpace(param.Levels("x", 1, 2, 3), param.Bool("y"))
	eval := EvaluatorFunc(func(cfg param.Config) []float64 { return []float64{cfg[0] + cfg[1]} })
	res, err := Run(space, eval, Options{Objectives: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("zero-valued options produced no samples")
	}
}

func TestThinGuards(t *testing.T) {
	if got := thin([]int64{1, 2, 3}, 0); len(got) != 0 {
		t.Fatalf("thin(_, 0) = %v", got)
	}
	if got := thin([]int64{1, 2, 3}, -1); len(got) != 0 {
		t.Fatalf("thin(_, -1) = %v", got)
	}
}

// BenchmarkALIteration measures the active-learning loop on an enumerable
// pool near the default PoolCap: a 192 000-point space swept exhaustively
// every iteration, the regime the exploration state kept across rounds
// targets.
func BenchmarkALIteration(b *testing.B) {
	space := param.MustSpace(
		param.Grid("a", 0, 4, 80),
		param.Grid("b", 0, 4, 80),
		param.Grid("c", 0, 1, 30),
	) // 192 000 points, enumerable under the default 200 000 PoolCap
	eval := EvaluatorFunc(func(cfg param.Config) []float64 {
		a, bb := cfg[0], cfg[1]
		return []float64{a + 0.5*bb + cfg[2], bb + 0.25*a}
	})
	b.ReportAllocs()
	var fit time.Duration
	for i := 0; i < b.N; i++ {
		res, err := Run(space, eval, Options{
			Objectives:    2,
			RandomSamples: 100,
			MaxIterations: 2,
			MaxBatch:      30,
			Seed:          int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range res.Iterations {
			fit += it.FitTime
		}
	}
	// Per-run forest-fitting wall clock, so the bench logs track the
	// warm-started presorted refits alongside the whole-iteration timing.
	b.ReportMetric(fit.Seconds()*1e3/float64(b.N), "fit-ms")
}

// BenchmarkALIterationFit isolates fitForests across a growing
// active-learning run — the exact call pattern of the engine's fit phase:
// bootstrap-sized training set, then one refit per objective per iteration
// as measured batches append to one shared presorted Columns (the poolState
// seam).
func BenchmarkALIterationFit(b *testing.B) {
	space := param.MustSpace(
		param.Grid("a", 0, 4, 40),
		param.Grid("b", 0, 4, 40),
		param.Levels("c", 1, 2, 3),
	)
	eval := benchEval(space)
	const bootstrap, batch, iters, objectives = 50, 75, 6, 2
	rng := rand.New(rand.NewSource(1))
	total := bootstrap + batch*(iters-1)
	idxs := space.SampleIndices(rng, total)
	samples := make([]Sample, total)
	for i, idx := range idxs {
		cfg := space.AtIndex(idx)
		samples[i] = Sample{Index: idx, Config: cfg, Objs: eval.Evaluate(cfg)}
	}
	ctx := context.Background()

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := Options{Objectives: objectives, Seed: int64(i + 1)}.withDefaults()
		st := newPoolState(space, o)
		n := 0
		for iter := 1; iter <= iters; iter++ {
			grow := batch
			if iter == 1 {
				grow = bootstrap
			}
			for _, s := range samples[n : n+grow] {
				if err := st.addSample(s); err != nil {
					b.Fatal(err)
				}
			}
			n += grow
			cols, err := st.columns()
			if err == nil {
				_, err = fitForests(ctx, cols, st.ys, o, iter)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestOnIterationStream(t *testing.T) {
	space := benchSpace(t)
	var events []IterationStats
	res, err := Run(space, benchEval(space), Options{
		Objectives:    2,
		RandomSamples: 30,
		MaxIterations: 2,
		Seed:          41,
		OnIteration:   func(s IterationStats) { events = append(events, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(res.Iterations)+1 {
		t.Fatalf("got %d events for %d iterations (+bootstrap)", len(events), len(res.Iterations))
	}
	if events[0].Iteration != 0 || events[0].NewSamples != 30 {
		t.Fatalf("first event is not the bootstrap: %+v", events[0])
	}
	for i, it := range res.Iterations {
		if events[i+1].Iteration != it.Iteration || events[i+1].TotalSamples != it.TotalSamples {
			t.Fatalf("event %d does not match recorded stats", i+1)
		}
	}
}
