// Package core implements HyperMapper, the multi-objective random-forest
// active-learning design-space-exploration framework of the paper
// (Algorithm 1):
//
//	X_out ← rs distinct random configurations;  evaluate them
//	repeat
//	    fit one random forest per objective on (X_out, Y)
//	    predict all objectives over the configuration pool X
//	    P ← predicted Pareto front
//	    evaluate P − X_out on the real system;  add to X_out
//	until P − X_out = ∅ (or iteration/batch budget exhausted)
//
// The package is objective-count agnostic: the paper explores
// (runtime, accuracy) and its predecessor adds power as a third objective;
// both work unchanged.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/forest"
	"repro/internal/journal"
	"repro/internal/par"
	"repro/internal/param"
	"repro/internal/pareto"
)

// Evaluator runs one configuration "on hardware" and returns its objective
// vector (all objectives minimized). Implementations must be safe for
// concurrent use: the optimizer evaluates batches in parallel.
type Evaluator interface {
	Evaluate(cfg param.Config) []float64
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(cfg param.Config) []float64

// Evaluate implements Evaluator.
func (f EvaluatorFunc) Evaluate(cfg param.Config) []float64 { return f(cfg) }

// Options configures a HyperMapper run. The zero value of optional fields
// selects the documented defaults; Objectives is required.
type Options struct {
	// Objectives is the number of objective values the evaluator returns.
	Objectives int
	// RandomSamples is rs of Algorithm 1: the size of the uniform random
	// bootstrap phase (default 200).
	RandomSamples int
	// MaxIterations caps the number of active-learning iterations
	// (default 6, the count reported for the ODROID experiment).
	MaxIterations int
	// MaxBatch caps the number of new evaluations per iteration; the
	// paper observes 100–300 per iteration (default 300). Excess
	// predicted-front points are thinned evenly along the front.
	MaxBatch int
	// PoolCap bounds the prediction pool X. Spaces up to PoolCap are
	// enumerated exhaustively (the paper predicts over the entire
	// space); larger spaces are re-subsampled to PoolCap points each
	// iteration (default 200000).
	PoolCap int
	// Forest configures the per-objective regressors. Only Trees is read:
	// the engine sets each fit's Seed and Workers itself.
	Forest forest.Options
	// Seed drives every random choice (sampling, pools, forests).
	Seed int64
	// Workers bounds concurrent evaluator calls; 0 = GOMAXPROCS.
	Workers int
	// Cache, when non-nil, memoizes evaluator results across runs over the
	// same (space, evaluator) pair; see EvalCache. Hit/miss counts are
	// surfaced in IterationStats and Result. The cache sits in front of
	// the evaluation Backend, so local and remote measurements memoize
	// identically.
	Cache *EvalCache
	// Backend, when non-nil, evaluates each batch instead of the run's
	// Evaluator — e.g. a worker.Pool backend that fans batches out to
	// remote worker daemons. When set, the Evaluator argument of
	// Run/RunContext may be nil. When nil, batches run in-process through
	// a LocalBackend over the Evaluator, bounded by Workers.
	Backend Backend
	// OnIteration, when non-nil, receives the statistics of every phase as
	// it completes: first the bootstrap (Iteration 0), then each
	// active-learning round. It is called from the run's goroutine;
	// implementations should return quickly.
	OnIteration func(IterationStats)
	// Journal, when non-nil, durably records every measured batch as it
	// completes inside the evaluation step — the hook the daemon's
	// crash-safe evaluation journal plugs into. Only genuinely measured
	// samples are recorded (replay-served ones are already journaled); a
	// recording failure fails the run, because continuing would silently
	// drop the durability the caller asked for. Measurements that
	// completed before the failure are still returned.
	Journal BatchRecorder
	// Replay holds a journal's batch records, in order
	// (journal.Recovered.Batches) — the resume half of the journal: a run
	// with identical space, seed, and budgets reconstructs from them the
	// journaled run's exact exploration state (same RNG draws, samples and
	// fronts) without re-measuring anything, and continues live at the
	// first unjournaled configuration. The slice is only read; the run
	// derives what it needs from it once, when it starts (replayPlan).
	// Journaled objectives are served by design-space index before the
	// cache and backend are consulted. A journaled skip (Batch.Unmeasured)
	// is consumed before them, so a resumed run reproduces the original's
	// degraded batches exactly — an index skipped in one round and measured
	// in a later one replays in that same order. A round the journal holds
	// whole (see run.journaledRound) is fast-forwarded: its batch is
	// measured through replay without a forest fit, pool prediction or
	// selection, and its statistics are the journaled Batch.Round. Every
	// other round, one split across records by a crash mid-batch or
	// journaled without a Round, is recomputed.
	Replay []journal.Batch
	// MaxUnmeasuredFraction bounds graceful degradation. When a batch
	// comes back partially unmeasured — the evaluation backend exhausted
	// its retries on some chunk, or returned fewer results than asked —
	// the run continues without the missing configurations as long as
	// unmeasured/batch ≤ this fraction; above it the run fails as it
	// always has. 0, the default, keeps strict fail-fast behavior; 1
	// tolerates any partial batch (a bootstrap with zero measurements
	// still fails — there would be nothing to train on). Values are
	// clamped to [0,1]. Skipped configurations stay eligible for later
	// rounds, are counted in IterationStats.Unmeasured and
	// Result.Unmeasured, and are journaled (Batch.Unmeasured) so a
	// resumed run degrades byte-identically; the fraction participates in
	// RunFingerprint for the same reason.
	MaxUnmeasuredFraction float64
	// Strategy names the run's search strategy (see strategy.go); the zero
	// value is the paper's. A strategy that does not Validate is refused.
	// Non-default strategies change the run's random sequence, so runs are
	// only comparable (and journals only replayable) across equal
	// strategies; RunFingerprint captures this.
	Strategy Strategy

	// probes is how many constraint observations the feasibility strategy
	// draws after the bootstrap (0: feasibilityProbes).
	probes int
}

// withDefaults fills every optional field so a zero-valued Options (apart
// from the required Objectives) yields a working run: a non-positive
// MaxBatch would stall the loop at zero new evaluations per iteration and a
// non-positive PoolCap would empty the prediction pool, so both are
// defaulted alongside the sampling and worker budgets.
func (o Options) withDefaults() Options {
	if o.RandomSamples <= 0 {
		o.RandomSamples = 200
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 6
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 300
	}
	if o.PoolCap <= 0 {
		o.PoolCap = 200_000
	}
	if o.Workers <= 0 {
		o.Workers = par.MaxWorkers()
	}
	if o.MaxUnmeasuredFraction < 0 {
		o.MaxUnmeasuredFraction = 0
	} else if o.MaxUnmeasuredFraction > 1 {
		o.MaxUnmeasuredFraction = 1
	}
	if o.probes <= 0 {
		o.probes = feasibilityProbes
	}
	return o
}

// BatchRecorder receives each evaluation batch as it completes, in the
// journal's own record — see Options.Journal. The batch carries the
// genuinely measured samples (replay-served ones are excluded — they are
// already journaled) and, in Unmeasured, the live skips tolerated under
// MaxUnmeasuredFraction in batch order; at least one of the two is
// non-empty. An interrupted batch's missing tail is deliberately NOT listed
// as unmeasured, so resume re-measures it instead of skipping it. The
// engine calls it from the run's own goroutine, one batch at a time.
type BatchRecorder interface {
	// RecordBatch records one completed batch (bootstrap or
	// active-learning round).
	RecordBatch(b journal.Batch) error
}

// Sample is one evaluated configuration.
type Sample struct {
	Index  int64        // design-space index
	Config param.Config // decoded parameter values
	Objs   []float64    // measured objectives
	// ActiveLearning is false for bootstrap (random) samples and true for
	// samples chosen by the predictive model.
	ActiveLearning bool
	// Iteration is 0 for the random phase, i ≥ 1 for the i-th AL round.
	Iteration int
}

// IterationStats summarizes one active-learning round.
type IterationStats struct {
	Iteration          int       // 0 for the bootstrap, i ≥ 1 for AL rounds
	PredictedFrontSize int       // |P|
	NewSamples         int       // |P − X_out| actually evaluated
	TotalSamples       int       // |X_out| after the round
	FrontSize          int       // measured front size after the round
	OOBError           []float64 // per-objective forest OOB MSE (NaN when undefined)
	// OOBSamples counts, per objective, how many training samples the OOB
	// estimate aggregates over. 0 means the matching OOBError is NaN — no
	// sample ever fell out of bag (tiny training sets) — which is distinct
	// from a measured error of zero.
	OOBSamples []int
	// CacheHits/CacheMisses count evaluator memo-cache lookups for this
	// round's batch (both zero when Options.Cache is nil).
	CacheHits   int
	CacheMisses int
	// Unmeasured counts this round's configurations that came back without
	// a measurement and were tolerated under MaxUnmeasuredFraction
	// (replayed skips of a resumed run included). Always 0 when the
	// fraction is 0: strict runs fail instead of degrading.
	Unmeasured int
	// Hypervolume is the hypervolume indicator of the measured front after
	// the phase, with respect to a reference at the measured nadir padded
	// by 10% of the measured per-objective range (both over every valid
	// sample so far). The reference tightens as measurements accumulate, so
	// compare the values as a progress signal, not an absolute indicator
	// against a fixed box (the quality harness computes that one). NaN
	// while undefined — no valid samples yet.
	Hypervolume float64
	// Per-phase wall-clock durations of the round, in loop order: forest
	// fitting, pool construction (EncodeTime: the subsampled pool's draw of
	// cell indices, next to nothing on an enumerable space — no pool row is
	// encoded on either), pool prediction (including the predicted-front
	// filter), and hardware evaluation of the new batch.
	// The bootstrap event carries only EvalTime, and a round a resumed run
	// fast-forwards (Options.Replay) a FitTime and PredictTime of 0:
	// it fits nothing (Result.Forests fits a last such round's forests on
	// demand). They make the optimizer-side cost observable end to end
	// (they stream out over the server's /events NDJSON feed).
	FitTime     time.Duration
	EncodeTime  time.Duration
	PredictTime time.Duration
	EvalTime    time.Duration
}

// Result is the outcome of a HyperMapper run.
type Result struct {
	// Samples holds every evaluated configuration in evaluation order:
	// first the random phase, then each AL round. Invalid measurements are
	// kept apart in Invalid, so Samples is always safe to train on.
	Samples []Sample
	// Invalid holds measurements with a non-finite objective (NaN or ±Inf)
	// — configurations that violate a constraint only the real system knows
	// about, or whose measurement broke. Under every strategy they are kept
	// out of Samples, training matrices, hypervolume bounds and fronts, and
	// are not measured again; the feasibility strategy
	// (Strategy.Feasibility) also feeds them to its classifier.
	Invalid []Sample
	// RandomFront is the measured Pareto front using only the random
	// bootstrap samples (the red curve of Figs. 3–4).
	RandomFront []pareto.Point
	// Front is the final measured Pareto front over all samples (the
	// black curve of Figs. 3–4).
	Front []pareto.Point
	// Iterations records per-round statistics.
	Iterations []IterationStats
	// Converged reports whether the loop stopped because P − X_out = ∅
	// rather than by exhausting MaxIterations.
	Converged bool
	// CacheHits/CacheMisses total the evaluator memo-cache lookups across
	// the whole run, bootstrap included (zero when Options.Cache is nil).
	CacheHits   int
	CacheMisses int
	// Unmeasured totals the configurations tolerated away unmeasured under
	// Options.MaxUnmeasuredFraction across the whole run.
	Unmeasured int

	// byIndex lazily maps design-space index → position in Samples, built
	// on first ByIndex call (and rebuilt if Samples grew since), so
	// FrontSamples is O(samples + front) instead of O(samples × front).
	byIndexMu sync.Mutex
	byIndex   map[int64]int

	// forests are the last round's models; when that round was
	// fast-forwarded, fitLast fits them on the first Forests call instead.
	forestsMu  sync.Mutex
	forests    []*forest.Forest
	forestsErr error
	fitLast    func() ([]*forest.Forest, error)
}

// Forests returns the final per-objective models (e.g. for feature
// importance inspection): those of the run's last round, nil when it ran
// none. A resumed run that fast-forwarded its last round fits them on the
// first call, from the same training prefix and seed as the original fit,
// so they are the uninterrupted run's forests; later calls return the same
// forests. Safe for concurrent use on a completed Result.
func (r *Result) Forests() ([]*forest.Forest, error) {
	r.forestsMu.Lock()
	defer r.forestsMu.Unlock()
	if r.fitLast != nil {
		r.forests, r.forestsErr = r.fitLast()
		r.fitLast = nil
	}
	return r.forests, r.forestsErr
}

// ByIndex returns the sample with the given design-space index, if present.
// Concurrent readers of a completed Result are safe (the lazy map build is
// locked); it must not race with code that is still appending to Samples.
func (r *Result) ByIndex(idx int64) (Sample, bool) {
	r.byIndexMu.Lock()
	if r.byIndex == nil || len(r.byIndex) != len(r.Samples) {
		m := make(map[int64]int, len(r.Samples))
		for i, s := range r.Samples {
			if _, dup := m[s.Index]; !dup { // keep the first, like the linear scan did
				m[s.Index] = i
			}
		}
		r.byIndex = m
	}
	i, ok := r.byIndex[idx]
	r.byIndexMu.Unlock()
	if !ok {
		return Sample{}, false
	}
	return r.Samples[i], true
}

// ActiveSamples returns only the samples chosen by active learning.
func (r *Result) ActiveSamples() []Sample {
	var out []Sample
	for _, s := range r.Samples {
		if s.ActiveLearning {
			out = append(out, s)
		}
	}
	return out
}

// Run executes Algorithm 1 on the given space and evaluator. It is a thin
// wrapper over RunContext with a background context.
func Run(space *param.Space, eval Evaluator, opts Options) (*Result, error) {
	return RunContext(context.Background(), space, eval, opts)
}

// RunContext executes Algorithm 1 with cooperative cancellation: the
// context is checked after the bootstrap, around every forest fit, and
// before and inside every evaluation batch. On cancellation it returns the
// partial result accumulated so far together with the context's error, so
// callers can inspect or persist what an interrupted exploration did find.
// Evaluations that completed inside an interrupted batch are retained —
// measurements are too expensive to discard — with fronts recomputed over
// everything measured.
func RunContext(ctx context.Context, space *param.Space, eval Evaluator, opts Options) (*Result, error) {
	if space == nil || space.Size() == 0 {
		return nil, errors.New("core: empty design space")
	}
	if eval == nil && opts.Backend == nil {
		return nil, errors.New("core: nil evaluator and no backend")
	}
	if opts.Objectives < 1 {
		return nil, errors.New("core: Objectives must be ≥ 1")
	}
	if err := opts.Strategy.Validate(); err != nil {
		return nil, err
	}
	r := newRun(ctx, space, eval, opts)
	err := r.bootstrap()
	for iter := 1; err == nil && !r.res.Converged && iter <= r.o.MaxIterations; iter++ {
		err = r.iterate(iter)
	}
	if r.failed {
		return nil, err
	}
	r.res.Front = measuredFront(r.res.Samples)
	return r.res, err
}

// run is the state of one RunContext call: Algorithm 1's X_out and what the
// loop carries from one phase to the next. Its methods are the phases —
// bootstrap, then iterate once per active-learning round — and both measure
// through measure → evaluate. A run is driven from a single goroutine.
type run struct {
	ctx   context.Context
	space *param.Space
	o     Options // defaults filled, Backend resolved
	rng   *rand.Rand
	res   *Result
	// evaluated maps every measured design-space index to its position in
	// res.Samples, or to -1 for an invalid measurement (measured, never
	// trained on, never measured again).
	evaluated map[int64]int
	st        *poolState // the pool, training matrix and prediction scratch kept across rounds

	// Feasibility labels, collected only under Strategy.Feasibility: the
	// default strategy must not encode extra rows or draw extra RNG values.
	feasX [][]float64
	feasY []float64

	// Running per-objective bounds over valid measurements, feeding the
	// per-phase hypervolume stat: reference = nadir + 10% of the range.
	nadir, ideal []float64

	// replay is what a resumed run takes from Options.Replay.
	replay replay
	// fetch measures the configurations of a batch that replay does not
	// answer, position-matched, with the memo-cache's hit and miss counts.
	// It is resolved once, when the run starts: the space-bound view of
	// Options.Cache in front of the backend, or the backend alone.
	fetch func(ctx context.Context, idxs []int64, cfgs []param.Config) ([][]float64, batchOutcome, error)

	// failed marks a run ended by fail: no partial result is returned.
	failed bool
}

// fail ends the run on an error that is the engine's or a broken contract's
// (a wrong objective count, a forest that cannot be fit), not a
// measurement's: unlike a failed or cancelled batch, it returns no partial
// result.
func (r *run) fail(err error) error {
	r.failed = true
	return err
}

// newRun resolves the options — defaults, the in-process backend over eval
// when none is given, the evaluation path — into the state of a run that
// has measured nothing yet.
func newRun(ctx context.Context, space *param.Space, eval Evaluator, opts Options) *run {
	o := opts.withDefaults()
	if o.Backend == nil {
		o.Backend = &LocalBackend{Eval: eval, Workers: o.Workers}
	}
	r := &run{
		ctx:       ctx,
		space:     space,
		o:         o,
		rng:       rand.New(rand.NewSource(o.Seed)),
		res:       &Result{},
		evaluated: make(map[int64]int),
		nadir:     make([]float64, o.Objectives),
		ideal:     make([]float64, o.Objectives),
		st:        newPoolState(space, o),
		replay:    replayPlan(o.Replay),
	}
	for k := range r.nadir {
		r.nadir[k] = math.Inf(-1)
		r.ideal[k] = math.Inf(1)
	}
	if o.Cache != nil {
		r.fetch = o.Cache.view(SpaceFingerprint(space, o.Objectives), o.Objectives, space.Size(), o.Backend).fetchBatch
	} else {
		r.fetch = func(ctx context.Context, _ []int64, cfgs []param.Config) ([][]float64, batchOutcome, error) {
			objs, err := o.Backend.EvaluateBatch(ctx, cfgs)
			return objs, batchOutcome{}, err
		}
	}

	return r
}

// bootstrap is the random sampling phase: X_out ← rs samples.
func (r *run) bootstrap() error {
	n := r.o.RandomSamples
	if int64(n) > r.space.Size() {
		n = int(r.space.Size())
	}
	draw := r.o.Strategy.draw(r.space, r.rng, n)
	var stats IterationStats
	err := r.measure(draw, &stats)
	r.res.RandomFront = measuredFront(r.res.Samples)
	if err != nil {
		return err
	}
	if stats.NewSamples == 0 && stats.Unmeasured > 0 {
		// Degradation tolerated away the whole bootstrap — there is nothing
		// to train on, and every later fit would fail obscurely.
		return fmt.Errorf("core: bootstrap batch fully unmeasured (%d configurations); cannot train", stats.Unmeasured)
	}
	if r.o.Strategy.Feasibility {
		// Probe the space's declared constraint predicate: uniform index
		// draws labeled feasible/infeasible without touching the evaluator.
		// They give the classifier a view of the infeasible region that
		// measured samples alone (drawn feasible by construction) cannot.
		cfg := make(param.Config, r.space.Dim())
		for i := r.o.probes; i > 0; i-- {
			r.space.AtIndexInto(r.rng.Int63n(r.space.Size()), cfg)
			r.addLabel(cfg, r.space.Feasible(cfg))
		}
	}
	r.publish(stats, r.res.RandomFront)
	return nil
}

// iterate is one active-learning round: fit, predict the pool, select
// P − X_out, measure it. A round that selects nothing marks the run
// converged.
func (r *run) iterate(iter int) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if todo, rd := r.journaledRound(iter); todo != nil {
		return r.fastForward(iter, todo, rd)
	}
	o := r.o
	stats := IterationStats{Iteration: iter}
	fitStart := time.Now()
	forests, cls, err := r.fit(iter)
	stats.FitTime = time.Since(fitStart)
	if err != nil {
		if cerr := r.ctx.Err(); cerr != nil {
			return cerr
		}
		return r.fail(err)
	}
	for _, f := range forests {
		stats.OOBError = append(stats.OOBError, f.OOBError())
		stats.OOBSamples = append(stats.OOBSamples, f.OOBSamples())
	}
	r.res.forests, r.res.fitLast = forests, nil

	// Predict every objective over the pool and filter the predicted
	// front P. The grid is kept across rounds: all of its cells are the
	// pool when the space is enumerable, else a re-drawn list of them.
	encStart := time.Now()
	if err := r.st.pool(r.rng, r.evaluated); err != nil {
		return r.fail(err)
	}
	stats.EncodeTime = time.Since(encStart)
	predStart := time.Now()
	r.st.predict(forests, o.Workers)
	predicted := r.st.front()
	stats.PredictTime = time.Since(predStart)
	stats.PredictedFrontSize = len(predicted)

	// P − X_out: predicted-front candidates not yet measured, run
	// through the feasibility filter (when a classifier was fit) before
	// the strategy picks this round's batch from them.
	cands := make([]pareto.Point, 0, len(predicted))
	for _, p := range predicted {
		if _, done := r.evaluated[p.ID]; !done {
			cands = append(cands, p)
		}
	}
	var feasProbs []float64
	if cls != nil && len(cands) > 0 {
		selStart := time.Now()
		feasProbs = predictFeasibility(r.space, cls, cands)
		cands, feasProbs = filterFeasible(cands, feasProbs, feasibilityThreshold)
		stats.PredictTime += time.Since(selStart)
	}
	todo := o.Strategy.selectBatch(cands, feasProbs, o.MaxBatch)
	if len(todo) == 0 {
		r.res.Converged = true
	} else if err := r.measure(todo, &stats); err != nil {
		return err
	}
	r.publish(stats, measuredFront(r.res.Samples))
	return nil
}

// replay is a resumed run's plan, derived once from its journal's batch
// records. objs holds the journaled objectives of every measured index;
// skips, the pending skip count of every index a batch left unmeasured,
// consumed as the run's batches replay; rounds, for each active-learning
// round recorded by exactly one record carrying a Round, that record; and
// lookups, per phase, the memo-cache hits and misses of all its records.
type replay struct {
	objs    map[int64][]float64
	skips   map[int64]int
	rounds  map[int]*journal.Batch
	lookups map[int]batchOutcome
}

// replayPlan reads a journal's batch records, in order, into a replay. A
// round with two records — a batch cut by a crash, whose remainder the
// resumed run measured into a second — has lost the order of its
// selection, so it is left out of the rounds.
func replayPlan(batches []journal.Batch) replay {
	p := replay{
		objs:    make(map[int64][]float64),
		skips:   make(map[int64]int),
		rounds:  make(map[int]*journal.Batch),
		lookups: make(map[int]batchOutcome),
	}
	records := make(map[int]int)
	for i := range batches {
		b := &batches[i]
		for _, s := range b.Samples {
			p.objs[s.Index] = s.Objs
		}
		for _, idx := range b.Unmeasured {
			p.skips[idx]++
		}
		l := p.lookups[b.Iteration]
		l.hits += b.Hits
		l.misses += b.Misses
		p.lookups[b.Iteration] = l
		if b.Iteration > 0 {
			records[b.Iteration]++
			p.rounds[b.Iteration] = b
		}
	}
	for iter, b := range p.rounds {
		if records[iter] != 1 || b.Round == nil {
			delete(p.rounds, iter)
		}
	}
	return p
}

// journaledRound returns round iter's batch, and what its model work
// decided, when the journal holds the round whole: its one record carries a
// Round with an OOB statistic per objective, the record's samples and
// unmeasured indices together number what the round selected (at least one:
// a round that selects nothing converges, and journals nothing), and none
// of them has been measured yet. The batch is the samples in order, then the
// unmeasured indices. It returns nil when the round must be recomputed.
func (r *run) journaledRound(iter int) ([]int64, *journal.Round) {
	b := r.replay.rounds[iter]
	if b == nil {
		return nil, nil
	}
	rd := b.Round
	if rd.Selected < 1 || len(b.Samples)+len(b.Unmeasured) != rd.Selected ||
		len(rd.OOBError) != r.o.Objectives || len(rd.OOBSamples) != r.o.Objectives {
		return nil, nil
	}
	todo := make([]int64, 0, rd.Selected)
	for _, s := range b.Samples {
		todo = append(todo, s.Index)
	}
	todo = append(todo, b.Unmeasured...)
	seen := make(map[int64]bool, len(todo))
	for _, idx := range todo {
		if _, done := r.evaluated[idx]; done || seen[idx] || idx < 0 || idx >= r.space.Size() {
			return nil, nil
		}
		seen[idx] = true
	}
	return todo, rd
}

// fastForward is round iter taken as journaled. The subsampled pool is
// still drawn, since its draw is what advances r.rng, but no forest is fit,
// no pool predicted and no batch selected: the round measures todo, which
// replay and the pending skips answer, and publishes rd's statistics. Ingest
// order is the batch's sample order, so X_out, the training matrix and the
// fronts come out as in the original round; the presorted columns take the
// skipped rounds' rows at the next fit. Fits are seeded by iteration, so
// that fit is the original's too, and so is the one Result.Forests runs if
// this round turns out to be the last (fitLater).
func (r *run) fastForward(iter int, todo []int64, rd *journal.Round) error {
	stats := IterationStats{
		Iteration:          iter,
		PredictedFrontSize: rd.PredictedFrontSize,
		OOBError:           slices.Clone(rd.OOBError),
		OOBSamples:         slices.Clone(rd.OOBSamples),
	}
	r.res.forests, r.res.fitLast = nil, r.fitLater(iter)
	if !r.st.enumerable {
		encStart := time.Now()
		r.o.Strategy.draw(r.space, r.rng, r.o.PoolCap)
		stats.EncodeTime = time.Since(encStart)
	}
	if err := r.measure(todo, &stats); err != nil {
		return err
	}
	r.publish(stats, measuredFront(r.res.Samples))
	return nil
}

// fitLater returns round iter's forest fit, deferred: over the training
// matrix as it stands before the round's batch is ingested (a capped
// prefix, so later appends stay out of it), from a from-scratch column sort,
// which forest.Columns orders exactly as the warm-started one. It keeps
// only the options fitForests reads, not the run's replay or journal.
func (r *run) fitLater(iter int) func() ([]*forest.Forest, error) {
	n := len(r.st.xRows)
	rows := r.st.xRows[:n:n]
	ys := make([][]float64, len(r.st.ys))
	for k, y := range r.st.ys {
		ys[k] = y[:n:n]
	}
	o := Options{Objectives: r.o.Objectives, Forest: r.o.Forest, Seed: r.o.Seed, Workers: r.o.Workers}
	return func() ([]*forest.Forest, error) {
		cols, err := forest.ColumnsFromRows(rows)
		if err != nil {
			return nil, err
		}
		return fitForests(context.Background(), cols, ys, o, iter)
	}
}

// fit trains the round's models on everything measured so far: the fresh
// batch is appended to the shared presorted matrix and one forest per
// objective is fit from it, then — under the feasibility strategy, once
// both classes have been observed (a one-class training set would yield a
// constant classifier that filters nothing but still costs a fit) — the
// feasibility classifier on the labels.
func (r *run) fit(iter int) ([]*forest.Forest, *forest.Classifier, error) {
	cols, err := r.st.columns()
	if err != nil {
		return nil, nil, err
	}
	forests, err := fitForests(r.ctx, cols, r.st.ys, r.o, iter)
	if err != nil || !slices.Contains(r.feasY, 0) || !slices.Contains(r.feasY, 1) {
		return forests, nil, err
	}
	fo := r.o.Forest
	fo.Workers = r.o.Workers
	fo.Seed = r.o.Seed + feasibilitySeedOffset + int64(iter)*104_729
	cls, err := forest.FitClassifier(r.feasX, r.feasY, fo)
	return forests, cls, err
}

// measure is the one way configurations become samples, in either phase:
// evaluate idxs, ingest what came back — on an error too, measurements are
// too expensive to discard — and account for the batch in the phase's
// statistics and the result's totals, with the memo-cache counts of the
// phase's journaled records on a resumed run, so it reports what the
// uninterrupted run would. An active-learning round's journal record
// carries what its model work decided, read from stats.
func (r *run) measure(idxs []int64, stats *IterationStats) error {
	var round *journal.Round
	if stats.Iteration > 0 {
		round = &journal.Round{
			Selected:           len(idxs),
			PredictedFrontSize: stats.PredictedFrontSize,
			OOBError:           stats.OOBError,
			OOBSamples:         stats.OOBSamples,
		}
	}
	start := time.Now()
	batch, bo, err := r.evaluate(idxs, stats.Iteration, round)
	stats.EvalTime = time.Since(start)
	bo.hits += r.replay.lookups[stats.Iteration].hits
	bo.misses += r.replay.lookups[stats.Iteration].misses
	stats.NewSamples = len(batch)
	stats.CacheHits, stats.CacheMisses, stats.Unmeasured = bo.hits, bo.misses, bo.unmeasured
	r.res.CacheHits += bo.hits
	r.res.CacheMisses += bo.misses
	r.res.Unmeasured += bo.unmeasured
	if ierr := r.ingest(batch); ierr != nil {
		return r.fail(ierr)
	}
	return err
}

// publish completes a phase's statistics with the state of X_out after it —
// front being its measured front — and hands them out: to
// Result.Iterations (rounds only; the bootstrap is Iteration 0) and to
// Options.OnIteration.
func (r *run) publish(stats IterationStats, front []pareto.Point) {
	stats.TotalSamples = len(r.res.Samples)
	stats.FrontSize = len(front)
	stats.Hypervolume = r.hypervolume(front)
	if stats.Iteration > 0 {
		r.res.Iterations = append(r.res.Iterations, stats)
	}
	if r.o.OnIteration != nil {
		r.o.OnIteration(stats)
	}
}

// hypervolume is the per-phase progress stat of IterationStats.Hypervolume.
func (r *run) hypervolume(front []pareto.Point) float64 {
	if len(front) == 0 {
		return math.NaN()
	}
	ref := make([]float64, len(r.nadir))
	for k := range ref {
		if math.IsInf(r.nadir[k], -1) {
			return math.NaN()
		}
		ref[k] = r.nadir[k] + float64(0.1*(r.nadir[k]-r.ideal[k])) // rounded before it is added: never fused
	}
	return pareto.Hypervolume(front, ref)
}

// addLabel records one feasibility-classifier label.
func (r *run) addLabel(cfg param.Config, valid bool) {
	row := make([]float64, r.space.Dim())
	r.space.Encode(cfg, row)
	r.feasX = append(r.feasX, row)
	if valid {
		r.feasY = append(r.feasY, 1)
	} else {
		r.feasY = append(r.feasY, 0)
	}
}

// ingest is the one place a measured batch enters the run state. A sample
// with any non-finite objective (NaN or ±Inf: an evaluator-side constraint
// violation, a crashed program, a `null` over a bridge) is an invalid
// configuration under every strategy: it goes to Result.Invalid and stays
// marked as measured, and never reaches Samples, the training matrix, the
// hypervolume bounds or a front. A feasibility-aware strategy also takes
// every sample, valid or not, as a classifier label.
func (r *run) ingest(batch []Sample) error {
	for _, s := range batch {
		invalid := slices.ContainsFunc(s.Objs, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) })
		if r.o.Strategy.Feasibility {
			r.addLabel(s.Config, !invalid)
		}
		if invalid {
			r.res.Invalid = append(r.res.Invalid, s)
			r.evaluated[s.Index] = -1
			continue
		}
		if err := r.st.addSample(s); err != nil {
			return err
		}
		r.res.Samples = append(r.res.Samples, s)
		r.evaluated[s.Index] = len(r.res.Samples) - 1
		for k, v := range s.Objs {
			r.nadir[k] = max(r.nadir[k], v)
			r.ideal[k] = min(r.ideal[k], v)
		}
	}
	return nil
}

// predictFeasibility encodes each candidate and asks the classifier for its
// validity probability. Candidate sets are front-sized (tens to hundreds of
// points), so a serial pass is cheap next to the pool prediction.
func predictFeasibility(space *param.Space, cls *forest.Classifier, cands []pareto.Point) []float64 {
	dim := space.Dim()
	cfg := make(param.Config, dim)
	rows := make([][]float64, len(cands))
	flat := make([]float64, len(cands)*dim)
	for i, p := range cands {
		row := flat[i*dim : (i+1)*dim]
		space.AtIndexInto(p.ID, cfg)
		space.Encode(cfg, row)
		rows[i] = row
	}
	return cls.PredictProbs(rows)
}

// filterFeasible drops candidates whose predicted validity probability falls
// below threshold — unless that would drop all of them, in which case the
// classifier is overruled (a stalled run teaches it nothing; measuring its
// least-implausible candidates does).
func filterFeasible(cands []pareto.Point, probs []float64, threshold float64) ([]pareto.Point, []float64) {
	keptC := cands[:0]
	keptP := probs[:0]
	for i, p := range probs {
		if p >= threshold {
			keptC = append(keptC, cands[i])
			keptP = append(keptP, p)
		}
	}
	if len(keptC) == 0 {
		return cands, probs
	}
	return keptC, keptP
}

// batchOutcome carries one batch's accounting: memo-cache hit and miss
// counts (both zero without a cache), plus how many of the batch's
// configurations ended unmeasured (live skips tolerated under
// MaxUnmeasuredFraction and replayed skips of a resumed run alike).
type batchOutcome struct {
	hits, misses int
	unmeasured   int
}

// evaluate answers one batch of configuration indices, returning samples
// in the order of idxs plus the batch's accounting. Each position is
// answered by the first stage that can: a pending journaled skip of a
// resumed run leaves it unmeasured again (consumed before the replay is
// consulted, so an index the original run skipped in one batch and measured
// in a later one replays in that same order), then the journaled
// objectives of Options.Replay, then run.fetch — the memo-cache, and the
// Backend in one call for what is left. What fetch answered — and only
// that, so a resumed run never re-journals what it replayed — is recorded
// to Options.Journal before returning, with round, the model side of an
// active-learning round (nil on the bootstrap).
//
// A batch that comes back partially unmeasured normally fails the run;
// with MaxUnmeasuredFraction > 0 and the unmeasured share within it the
// batch instead degrades: the backend error is swallowed, the live skips
// are journaled (Batch.Unmeasured) so a resumed run degrades
// byte-identically, and the skipped indices stay eligible for later
// rounds. Cancellation never degrades — on cancellation or intolerable
// backend failure only the evaluations that did complete are returned,
// together with the error (measurements are expensive — an interrupted
// batch must not throw finished ones away); completed measurements are
// still journaled on the way out, without skip entries, so resume
// re-measures the interrupted tail instead of skipping it.
func (r *run) evaluate(idxs []int64, iter int, round *journal.Round) ([]Sample, batchOutcome, error) {
	var bo batchOutcome
	if err := r.ctx.Err(); err != nil {
		return nil, bo, err
	}
	o := r.o
	cfgs := make([]param.Config, len(idxs))
	objs := make([][]float64, len(idxs))
	skipped := make([]bool, len(idxs)) // replayed a journaled skip here
	var live []int                     // positions left to fetch
	var liveIdxs []int64
	var liveCfgs []param.Config
	for i, idx := range idxs {
		cfgs[i] = r.space.AtIndex(idx)
		if r.replay.skips[idx] > 0 {
			r.replay.skips[idx]--
			skipped[i] = true
		} else if rec, ok := r.replay.objs[idx]; ok {
			objs[i] = append([]float64(nil), rec...)
		} else {
			live = append(live, i)
			liveIdxs = append(liveIdxs, idx)
			liveCfgs = append(liveCfgs, cfgs[i])
		}
	}
	var err error
	if len(live) > 0 {
		var liveObjs [][]float64
		liveObjs, bo, err = r.fetch(r.ctx, liveIdxs, liveCfgs)
		if len(liveObjs) > len(live) {
			// A contract violation must fail like the under-length case
			// below, not index past idxs.
			return nil, bo, fmt.Errorf("core: backend returned %d results for a %d-configuration batch", len(liveObjs), len(live))
		}
		for j, ob := range liveObjs {
			objs[live[j]] = ob
		}
	}
	out := make([]Sample, 0, len(idxs))
	rec := journal.Batch{Iteration: iter, Active: iter > 0, Round: round}
	var liveSkipped []int64 // live positions without a measurement, batch order
	for i, ob := range objs {
		if ob == nil {
			bo.unmeasured++
			if !skipped[i] {
				liveSkipped = append(liveSkipped, idxs[i])
			}
			continue // not evaluated: skipped, cancelled, or failed mid-batch
		}
		out = append(out, Sample{Index: idxs[i], Config: cfgs[i], Objs: ob, Iteration: iter, ActiveLearning: iter > 0})
		if _, replayed := r.replay.objs[idxs[i]]; !replayed {
			rec.Samples = append(rec.Samples, journal.SampleRecord{Index: idxs[i], Objs: ob})
		}
	}
	// Decide degradation before journaling: a tolerated batch journals its
	// skips, an intolerable or cancelled one must not (its missing tail is
	// re-measured on resume). The fraction is taken over the whole batch,
	// replayed skips included, so a resumed run reaches the same verdict.
	degraded := len(liveSkipped) > 0 && r.ctx.Err() == nil && o.MaxUnmeasuredFraction > 0 &&
		float64(bo.unmeasured) <= o.MaxUnmeasuredFraction*float64(len(idxs))
	rec.Hits, rec.Misses = bo.hits, bo.misses
	if degraded {
		rec.Unmeasured = liveSkipped
	} else if len(liveSkipped) > 0 {
		// The unmeasured tail is fetched, and counted, again on resume:
		// the record counts only the misses it measured (none without a
		// cache).
		rec.Misses = min(bo.misses, len(rec.Samples)-bo.hits)
	}
	if o.Journal != nil && (len(rec.Samples) > 0 || degraded) {
		if jerr := o.Journal.RecordBatch(rec); jerr != nil {
			return out, bo, fmt.Errorf("core: journaling evaluation batch: %w", jerr)
		}
	}
	if degraded {
		err = nil
	} else if err == nil && len(liveSkipped) > 0 {
		err = fmt.Errorf("core: backend returned %d results for a %d-configuration batch", len(out), len(idxs))
	}
	return out, bo, err
}

// fitForests trains one regressor per objective over the shared presorted
// column matrix with per-objective target columns ys. The per-objective
// fits are independent, only read cols, and run in parallel, with the
// worker budget split between them so the tree-level parallelism inside
// each forest.Refit does not oversubscribe the machine by a factor of
// Objectives. Cancellation is checked before each fit starts.
func fitForests(ctx context.Context, cols *forest.Columns, ys [][]float64, o Options, iter int) ([]*forest.Forest, error) {
	// The run's Workers bounds the TOTAL tree-fitting parallelism; divide
	// it across the concurrent per-objective fits.
	innerWorkers := (o.Workers + o.Objectives - 1) / o.Objectives
	if innerWorkers < 1 {
		innerWorkers = 1
	}
	forests := make([]*forest.Forest, o.Objectives)
	errs := make([]error, o.Objectives)
	par.ForWorkers(o.Objectives, o.Workers, func(k int) {
		if err := ctx.Err(); err != nil {
			errs[k] = err
			return
		}
		fo := o.Forest
		fo.Workers = innerWorkers
		fo.Seed = o.Seed + int64(k)*7_919 + int64(iter)*104_729
		f, err := forest.Refit(cols, ys[k], fo)
		if err != nil {
			errs[k] = err
			return
		}
		forests[k] = f
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return forests, nil
}

// predictionPool draws the pool X of Algorithm 1 on a space larger than
// cap: up to cap fresh indices drawn by the run's strategy (fewer on a
// tightly constrained space) plus every evaluated index (so the predicted
// front can stabilize onto measured points and the loop can converge).
func predictionPool(space *param.Space, rng *rand.Rand, s Strategy, poolCap int, evaluated map[int64]int) []int64 {
	pool := s.draw(space, rng, poolCap)
	seen := param.NewIndexSet(len(pool), space.Size())
	for _, idx := range pool {
		seen.Add(idx)
	}
	// Append the evaluated indices in sorted order: ranging over the map
	// directly would make pool order — and therefore tie-breaking in the
	// predicted front — vary across runs with an identical seed.
	extra := make([]int64, 0, len(evaluated))
	for idx := range evaluated {
		if !seen.Has(idx) {
			extra = append(extra, idx)
		}
	}
	slices.Sort(extra)
	return append(pool, extra...)
}

// measuredFront computes the Pareto front of the measured samples.
func measuredFront(samples []Sample) []pareto.Point {
	points := make([]pareto.Point, len(samples))
	for i, s := range samples {
		points[i] = pareto.Point{ID: s.Index, Objs: s.Objs}
	}
	return pareto.Front(points)
}

// thin reduces idxs to at most n entries spread evenly (idxs keeps the
// predicted-front order, which front construction sorts by the first
// objective, so even striding preserves coverage along the front).
func thin(idxs []int64, n int) []int64 {
	if n <= 0 {
		return nil
	}
	if len(idxs) <= n {
		return idxs
	}
	out := make([]int64, 0, n)
	step := float64(len(idxs)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, idxs[int(float64(i)*step)])
	}
	return out
}

// FrontSamples maps front points back to their full samples.
func FrontSamples(res *Result) []Sample {
	var out []Sample
	for _, p := range res.Front {
		if s, ok := res.ByIndex(p.ID); ok {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b Sample) int { return cmp.Compare(a.Objs[0], b.Objs[0]) })
	return out
}
