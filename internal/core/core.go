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
	// Forest configures the per-objective regressors.
	Forest forest.Options
	// Seed drives every random choice (sampling, pools, forests).
	Seed int64
	// Workers bounds concurrent evaluator calls; 0 = GOMAXPROCS.
	Workers int
	// Logf, when non-nil, receives one progress line per phase.
	Logf func(format string, args ...any)
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
	// Replay, when non-nil, serves previously measured objectives by
	// design-space index before the cache and backend are consulted — the
	// resume half of the journal: replaying a crashed run's journal through
	// a run with identical space, seed, and budgets reconstructs its exact
	// exploration state (same RNG draws, same forest fits, same pools)
	// without re-measuring anything, and continues live at the first
	// unjournaled configuration. Entries are objective vectors of length
	// Objectives; the map is only read.
	Replay map[int64][]float64
	// ReplaySkips complements Replay with the degraded-batch history: a
	// map from design-space index to how many batches of the journaled run
	// skipped that index unmeasured (journal Batch.Unmeasured entries).
	// During replay a pending skip is consumed before Replay is consulted,
	// so a resumed run reproduces the original's degraded batches exactly
	// — an index skipped in one iteration and measured in a later one
	// replays in that same order. The map is copied, never mutated.
	ReplaySkips map[int64]int
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

	// Sampler, Modeler, and Selector plug the three stages of the
	// search-strategy pipeline (see strategy.go). Nil selects the
	// paper-faithful defaults — UniformSampler, ForestModeler,
	// EvenThinSelector — which are byte-identical on the same seed to the
	// engine before the pipeline existed. Non-default stages change the
	// run's random sequence, so runs are only comparable (and journals only
	// replayable) across equal strategies; RunFingerprint captures this.
	Sampler  Sampler
	Modeler  Modeler
	Selector Selector

	// cache is the run's space-bound view of Cache, set by RunContext.
	cache *evalCacheView

	// legacyState forces the pre-incremental per-iteration path: re-encode
	// the training matrix before every fit, rebuild and re-encode the whole
	// prediction pool every round, and predict each objective in its own
	// batch pass. It is the reference implementation the regression tests
	// and benchmarks compare the incremental poolState path against; both
	// paths are byte-identical on the same seed.
	legacyState bool
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
	if o.Sampler == nil {
		o.Sampler = UniformSampler{}
	}
	if o.Modeler == nil {
		o.Modeler = ForestModeler{}
	}
	if o.Selector == nil {
		o.Selector = EvenThinSelector{}
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// RecordedBatch is one completed evaluation batch as handed to a
// BatchRecorder: the phase identity, the genuinely measured samples
// (replay-served ones are excluded — they are already journaled), and
// the design-space indices the batch skipped unmeasured under
// MaxUnmeasuredFraction, in batch order. At least one of Samples and
// Unmeasured is non-empty.
type RecordedBatch struct {
	Iteration int
	Active    bool
	Samples   []Sample
	// Unmeasured lists only live, tolerated skips: an interrupted batch's
	// missing tail is deliberately NOT recorded here, so resume
	// re-measures it instead of skipping it.
	Unmeasured []int64
}

// BatchRecorder receives each measured evaluation batch as it completes —
// see Options.Journal. Implementations must be safe for concurrent use
// with whatever else writes the same journal (e.g. a shutdown checkpoint).
type BatchRecorder interface {
	// RecordBatch records one completed batch (bootstrap or
	// active-learning round).
	RecordBatch(b RecordedBatch) error
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
	// The bootstrap event carries only EvalTime. They make the
	// optimizer-side cost observable end to end (they stream out over the
	// server's /events NDJSON feed).
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
	// are not measured again; a feasibility-aware strategy (Options.Modeler
	// implementing FeasibilityLabeler) also feeds them to its classifier.
	Invalid []Sample
	// RandomFront is the measured Pareto front using only the random
	// bootstrap samples (the red curve of Figs. 3–4).
	RandomFront []pareto.Point
	// Front is the final measured Pareto front over all samples (the
	// black curve of Figs. 3–4).
	Front []pareto.Point
	// Iterations records per-round statistics.
	Iterations []IterationStats
	// Forests holds the final per-objective models (e.g. for feature
	// importance inspection).
	Forests []*forest.Forest
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
	o := opts.withDefaults()
	if o.Backend == nil {
		o.Backend = &LocalBackend{Eval: eval, Workers: o.Workers}
	}
	if o.Cache != nil {
		o.cache = o.Cache.view(spaceFingerprint(space, o.Objectives))
	}
	if o.legacyState {
		// The reference path re-sorts every node segment during tree
		// training, exactly like the pre-presorted engine; forests stay
		// byte-identical to the fast builder, so the equivalence tests can
		// compare whole runs.
		o.Forest.Reference = true
	}
	rng := rand.New(rand.NewSource(o.Seed))

	res := &Result{}
	evaluated := make(map[int64]int) // space index → position in res.Samples
	finish := func(err error) (*Result, error) {
		res.Front = measuredFront(res.Samples)
		return res, err
	}
	var st *poolState // incremental state; nil on the legacy reference path
	if !o.legacyState {
		st = newPoolState(space, o)
	}
	// addSample appends one measured sample to the result (and, on the
	// incremental path, encodes it into the append-only training matrix).
	addSample := func(s Sample) error {
		if st != nil {
			if err := st.addSample(s); err != nil {
				return err
			}
		}
		res.Samples = append(res.Samples, s)
		evaluated[s.Index] = len(res.Samples) - 1
		return nil
	}

	// Feasibility labeling is active only when the modeler asks for it: the
	// default strategy must not encode extra rows or draw extra RNG values.
	labeler, _ := o.Modeler.(FeasibilityLabeler)
	wantFeas := labeler != nil && labeler.WantsFeasibilityLabels()
	var feasX [][]float64
	var feasY []float64
	addLabel := func(cfg param.Config, valid bool) {
		row := make([]float64, space.Dim())
		space.Encode(cfg, row)
		feasX = append(feasX, row)
		if valid {
			feasY = append(feasY, 1)
		} else {
			feasY = append(feasY, 0)
		}
	}

	// Running per-objective bounds over valid measurements, feeding the
	// per-phase hypervolume stat: reference = nadir + 10% of the range.
	nadir := make([]float64, o.Objectives)
	ideal := make([]float64, o.Objectives)
	for k := range nadir {
		nadir[k] = math.Inf(-1)
		ideal[k] = math.Inf(1)
	}
	frontHypervolume := func(front []pareto.Point) float64 {
		if len(front) == 0 {
			return math.NaN()
		}
		ref := make([]float64, o.Objectives)
		for k := range ref {
			if math.IsInf(nadir[k], -1) {
				return math.NaN()
			}
			ref[k] = nadir[k] + 0.1*(nadir[k]-ideal[k])
		}
		return pareto.Hypervolume(front, ref)
	}

	// ingest is the one place a measured batch enters the run state. A sample
	// with any non-finite objective (NaN or ±Inf: an evaluator-side constraint
	// violation, a crashed program, a `null` over a bridge) is an invalid
	// configuration under every strategy: it goes to Result.Invalid and stays
	// marked as measured, and never reaches Samples, the training matrix, the
	// hypervolume bounds or a front. A feasibility-aware strategy also takes
	// every sample, valid or not, as a classifier label.
	ingest := func(batch []Sample) error {
		for _, s := range batch {
			invalid := slices.ContainsFunc(s.Objs, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) })
			if wantFeas {
				addLabel(s.Config, !invalid)
			}
			if invalid {
				res.Invalid = append(res.Invalid, s)
				evaluated[s.Index] = -1 // measured, but not in res.Samples
				continue
			}
			if err := addSample(s); err != nil {
				return err
			}
			for k, v := range s.Objs {
				if v > nadir[k] {
					nadir[k] = v
				}
				if v < ideal[k] {
					ideal[k] = v
				}
			}
		}
		return nil
	}

	// Pending journaled skips of a resumed run, consumed as batches replay.
	// The copy keeps Options.ReplaySkips read-only for the caller.
	var skips map[int64]int
	if len(o.ReplaySkips) > 0 {
		skips = make(map[int64]int, len(o.ReplaySkips))
		for idx, n := range o.ReplaySkips {
			skips[idx] = n
		}
	}

	// ---- Random sampling bootstrap (X_out ← rs samples) ----
	n := o.RandomSamples
	if int64(n) > space.Size() {
		n = int(space.Size())
	}
	bootstrap := o.Sampler.Draw(space, rng, n)
	o.logf("random sampling: evaluating %d configurations", len(bootstrap))
	evalStart := time.Now()
	batch, bo, err := evaluateBatch(ctx, space, bootstrap, o, skips, 0, false)
	evalTime := time.Since(evalStart)
	res.CacheHits += bo.hits
	res.CacheMisses += bo.misses
	res.Unmeasured += bo.unmeasured
	if err := ingest(batch); err != nil {
		return nil, err
	}
	res.RandomFront = measuredFront(res.Samples)
	if err != nil {
		return finish(err)
	}
	if len(batch) == 0 && bo.unmeasured > 0 {
		// Degradation tolerated away the whole bootstrap — there is nothing
		// to train on, and every later fit would fail obscurely.
		return finish(fmt.Errorf("core: bootstrap batch fully unmeasured (%d configurations); cannot train", bo.unmeasured))
	}
	if wantFeas {
		// Probe the space's declared constraint predicate: uniform index
		// draws labeled feasible/infeasible without touching the evaluator.
		// They give the classifier a view of the infeasible region that
		// measured samples alone (drawn feasible by construction) cannot.
		probes := labeler.FeasibilityProbes()
		cfg := make(param.Config, space.Dim())
		for i := 0; i < probes; i++ {
			space.AtIndexInto(rng.Int63n(space.Size()), cfg)
			addLabel(cfg, space.Feasible(cfg))
		}
	}
	o.logf("random sampling: front size %d", len(res.RandomFront))
	o.onIteration(IterationStats{
		NewSamples:   len(batch),
		TotalSamples: len(res.Samples),
		FrontSize:    len(res.RandomFront),
		Hypervolume:  frontHypervolume(res.RandomFront),
		CacheHits:    bo.hits,
		CacheMisses:  bo.misses,
		Unmeasured:   bo.unmeasured,
		EvalTime:     evalTime,
	})

	// ---- Active learning loop ----
	for iter := 1; iter <= o.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		fitStart := time.Now()
		var models *Models
		if st != nil {
			// Warm path: append the fresh batch to the shared presorted
			// matrix and fit from it.
			var cols *forest.Columns
			cols, err = st.columns()
			if err == nil {
				models, err = o.Modeler.Fit(ctx, Training{Cols: cols, Ys: st.ys, FeasX: feasX, FeasY: feasY}, o, iter)
			}
		} else {
			// Legacy reference path: re-encode the training matrix and
			// rebuild the column transpose from scratch, every iteration.
			var x, ys [][]float64
			x, ys, err = trainingMatrix(space, res.Samples, o.Objectives)
			if err == nil {
				var cols *forest.Columns
				cols, err = forest.ColumnsFromRows(x)
				if err == nil {
					models, err = o.Modeler.Fit(ctx, Training{Cols: cols, Ys: ys, FeasX: feasX, FeasY: feasY}, o, iter)
				}
			}
		}
		fitTime := time.Since(fitStart)
		if err != nil {
			if ctx.Err() != nil {
				return finish(ctx.Err())
			}
			return nil, err
		}
		forests := models.Objectives
		oob, oobN := models.OOBError, models.OOBSamples
		res.Forests = forests

		// Predict every objective over the pool and filter the predicted
		// front P. The incremental path keeps the grid across rounds (all of
		// its cells are the pool when the space is enumerable, else a
		// re-drawn list of them); the legacy path rebuilds everything per
		// round.
		var predicted []pareto.Point
		var encodeTime, predictTime time.Duration
		if st != nil {
			encStart := time.Now()
			if err := st.pool(rng, evaluated); err != nil {
				return nil, err
			}
			encodeTime = time.Since(encStart)
			predStart := time.Now()
			points := st.predict(forests, o.Workers)
			predicted = pareto.FrontInPlace(points)
			predictTime = time.Since(predStart)
		} else {
			predicted, encodeTime, predictTime = legacyPredict(space, rng, o, evaluated, forests)
		}

		// P − X_out: predicted-front candidates not yet measured, run
		// through the feasibility filter (when a classifier was fit) and
		// handed to the selector to pick this round's batch.
		cands := make([]pareto.Point, 0, len(predicted))
		for _, p := range predicted {
			if _, done := evaluated[p.ID]; !done {
				cands = append(cands, p)
			}
		}
		var feasProbs []float64
		if models.Feasibility != nil && len(cands) > 0 {
			selStart := time.Now()
			feasProbs = predictFeasibility(space, models.Feasibility, cands)
			cands, feasProbs = filterFeasible(cands, feasProbs, labeler.FeasibilityThreshold())
			predictTime += time.Since(selStart)
		}
		todo := o.Selector.Select(Selection{
			Space:       space,
			Candidates:  cands,
			Feasibility: feasProbs,
			MaxBatch:    o.MaxBatch,
		})
		if len(todo) > o.MaxBatch {
			todo = todo[:o.MaxBatch] // clamp custom selectors to the contract
		}
		o.logf("iteration %d: predicted front %d, new configurations %d",
			iter, len(predicted), len(todo))

		if len(todo) == 0 {
			res.Converged = true
			front := measuredFront(res.Samples)
			stats := IterationStats{
				Iteration:          iter,
				PredictedFrontSize: len(predicted),
				TotalSamples:       len(res.Samples),
				FrontSize:          len(front),
				Hypervolume:        frontHypervolume(front),
				OOBError:           oob,
				OOBSamples:         oobN,
				FitTime:            fitTime,
				EncodeTime:         encodeTime,
				PredictTime:        predictTime,
			}
			res.Iterations = append(res.Iterations, stats)
			o.onIteration(stats)
			break
		}

		evalStart := time.Now()
		newSamples, bo, err := evaluateBatch(ctx, space, todo, o, skips, iter, true)
		evalTime := time.Since(evalStart)
		res.CacheHits += bo.hits
		res.CacheMisses += bo.misses
		res.Unmeasured += bo.unmeasured
		if err := ingest(newSamples); err != nil {
			return nil, err
		}
		if err != nil {
			return finish(err)
		}
		front := measuredFront(res.Samples)
		stats := IterationStats{
			Iteration:          iter,
			PredictedFrontSize: len(predicted),
			NewSamples:         len(newSamples),
			TotalSamples:       len(res.Samples),
			FrontSize:          len(front),
			Hypervolume:        frontHypervolume(front),
			OOBError:           oob,
			OOBSamples:         oobN,
			CacheHits:          bo.hits,
			CacheMisses:        bo.misses,
			Unmeasured:         bo.unmeasured,
			FitTime:            fitTime,
			EncodeTime:         encodeTime,
			PredictTime:        predictTime,
			EvalTime:           evalTime,
		}
		res.Iterations = append(res.Iterations, stats)
		o.onIteration(stats)
	}

	res.Front = measuredFront(res.Samples)
	o.logf("done: %d samples, final front size %d", len(res.Samples), len(res.Front))
	return res, nil
}

// legacyPredict is the pre-incremental prediction step, kept as the
// reference the regression tests and BenchmarkALIteration compare against:
// rebuild the pool, decode and encode every pool configuration, run one
// batch prediction per objective, and transpose into per-point objective
// vectors.
func legacyPredict(space *param.Space, rng *rand.Rand, o Options, evaluated map[int64]int, forests []*forest.Forest) (predicted []pareto.Point, encodeTime, predictTime time.Duration) {
	dim := space.Dim()
	encStart := time.Now()
	poolIdx := predictionPool(space, rng, o.Sampler, o.PoolCap, evaluated)
	feats := make([][]float64, len(poolIdx))
	flat := make([]float64, len(poolIdx)*dim)
	cfg := make(param.Config, dim)
	for i, idx := range poolIdx {
		row := flat[i*dim : (i+1)*dim]
		space.AtIndexInto(idx, cfg)
		space.Encode(cfg, row)
		feats[i] = row
	}
	encodeTime = time.Since(encStart)

	predStart := time.Now()
	preds := make([][]float64, o.Objectives)
	for k, f := range forests {
		preds[k] = f.PredictBatch(feats)
	}
	points := make([]pareto.Point, len(poolIdx))
	for i, idx := range poolIdx {
		objs := make([]float64, o.Objectives)
		for k := range preds {
			objs[k] = preds[k][i]
		}
		points[i] = pareto.Point{ID: idx, Objs: objs}
	}
	predicted = pareto.Front(points)
	predictTime = time.Since(predStart)
	return predicted, encodeTime, predictTime
}

func (o Options) onIteration(stats IterationStats) {
	if o.OnIteration != nil {
		o.OnIteration(stats)
	}
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

// batchOutcome carries one evaluateBatch's accounting: memo-cache hit and
// miss counts, plus how many of the batch's configurations ended
// unmeasured (live skips tolerated under MaxUnmeasuredFraction and
// replayed skips of a resumed run alike).
type batchOutcome struct {
	hits, misses int
	unmeasured   int
}

// evaluateBatch measures the given configuration indices through the run's
// Backend, returning samples in the order of idxs plus the batch's
// accounting. skips holds the resumed run's pending journaled skips by
// index (a mutable copy of Options.ReplaySkips, owned by the run loop); a
// pending skip is consumed before Replay is consulted, so an index the
// original run skipped in one batch and measured in a later one replays in
// that same order. Indices present in Options.Replay are served from the
// journal replay and never reach the cache or backend; the rest resolve as
// before: with a cache the batch goes through fetchBatch (cached indices
// served, the miss set evaluated in one backend call, in-flight indices of
// concurrent runs waited on), without one the whole batch goes to the
// backend directly. Genuinely measured samples — and only those — are
// recorded to Options.Journal before returning, so a resumed run never
// re-journals what it replayed.
//
// A batch that comes back partially unmeasured normally fails the run;
// with MaxUnmeasuredFraction > 0 and the unmeasured share within it the
// batch instead degrades: the backend error is swallowed, the live skips
// are journaled (RecordedBatch.Unmeasured) so a resumed run degrades
// byte-identically, and the skipped indices stay eligible for later
// rounds. Cancellation never degrades — on cancellation or intolerable
// backend failure only the evaluations that did complete are returned,
// together with the error (measurements are expensive — an interrupted
// batch must not throw finished ones away); completed measurements are
// still journaled on the way out, without skip entries, so resume
// re-measures the interrupted tail instead of skipping it.
func evaluateBatch(ctx context.Context, space *param.Space, idxs []int64, o Options, skips map[int64]int, iter int, active bool) ([]Sample, batchOutcome, error) {
	var bo batchOutcome
	if err := ctx.Err(); err != nil {
		return nil, bo, err
	}
	cfgs := make([]param.Config, len(idxs))
	for i, idx := range idxs {
		cfgs[i] = space.AtIndex(idx)
	}
	objs := make([][]float64, len(idxs))
	skipped := make([]bool, len(idxs)) // replayed a journaled skip here
	live := make([]int, 0, len(idxs))  // positions not served by replay
	for i, idx := range idxs {
		if n := skips[idx]; n > 0 {
			skips[idx] = n - 1
			skipped[i] = true
			continue
		}
		if rec, ok := o.Replay[idx]; ok {
			objs[i] = append([]float64(nil), rec...)
			continue
		}
		live = append(live, i)
	}
	var err error
	if len(live) > 0 {
		liveIdxs := make([]int64, len(live))
		liveCfgs := make([]param.Config, len(live))
		for j, i := range live {
			liveIdxs[j] = idxs[i]
			liveCfgs[j] = cfgs[i]
		}
		var liveObjs [][]float64
		if o.cache != nil {
			liveObjs, bo.hits, bo.misses, err = o.cache.fetchBatch(ctx, liveIdxs, liveCfgs, o.Backend)
		} else {
			liveObjs, err = o.Backend.EvaluateBatch(ctx, liveCfgs)
		}
		if len(liveObjs) > len(liveIdxs) {
			// A contract violation must fail like the under-length case
			// below, not index past idxs.
			return nil, bo, fmt.Errorf("core: backend returned %d results for a %d-configuration batch", len(liveObjs), len(liveIdxs))
		}
		for j, ob := range liveObjs {
			objs[live[j]] = ob
		}
	}
	out := make([]Sample, 0, len(idxs))
	var measured []Sample   // the live completions, for the journal
	var liveSkipped []int64 // live positions without a measurement, batch order
	for i, ob := range objs {
		if ob == nil {
			bo.unmeasured++
			if !skipped[i] {
				liveSkipped = append(liveSkipped, idxs[i])
			}
			continue // not evaluated: skipped, cancelled, or failed mid-batch
		}
		s := Sample{Index: idxs[i], Config: cfgs[i], Objs: ob, Iteration: iter, ActiveLearning: active}
		out = append(out, s)
		if _, replayed := o.Replay[s.Index]; !replayed {
			measured = append(measured, s)
		}
	}
	// Decide degradation before journaling: a tolerated batch journals its
	// skips, an intolerable or cancelled one must not (its missing tail is
	// re-measured on resume). The fraction is taken over the whole batch,
	// replayed skips included, so a resumed run reaches the same verdict.
	degraded := len(liveSkipped) > 0 && ctx.Err() == nil && o.MaxUnmeasuredFraction > 0 &&
		float64(bo.unmeasured) <= o.MaxUnmeasuredFraction*float64(len(idxs))
	if o.Journal != nil && (len(measured) > 0 || degraded) {
		rec := RecordedBatch{Iteration: iter, Active: active, Samples: measured}
		if degraded {
			rec.Unmeasured = liveSkipped
		}
		if jerr := o.Journal.RecordBatch(rec); jerr != nil {
			return out, bo, fmt.Errorf("core: journaling evaluation batch: %w", jerr)
		}
	}
	if degraded {
		o.logf("batch degraded: %d of %d configurations unmeasured (tolerating ≤ %.3g)",
			bo.unmeasured, len(idxs), o.MaxUnmeasuredFraction)
		err = nil
	} else if err == nil && len(liveSkipped) > 0 {
		err = fmt.Errorf("core: backend returned %d results for a %d-configuration batch", len(out), len(idxs))
	}
	return out, bo, err
}

// trainingMatrix encodes every sample from scratch — the legacy reference
// path; the incremental path keeps the matrix append-only in poolState.
func trainingMatrix(space *param.Space, samples []Sample, objectives int) (x, ys [][]float64, err error) {
	dim := space.Dim()
	x = make([][]float64, len(samples))
	ys = make([][]float64, objectives)
	for k := range ys {
		ys[k] = make([]float64, len(samples))
	}
	for i, s := range samples {
		if len(s.Objs) != objectives {
			return nil, nil, fmt.Errorf("core: evaluator returned %d objectives, want %d", len(s.Objs), objectives)
		}
		row := make([]float64, dim)
		space.Encode(s.Config, row)
		x[i] = row
		for k := 0; k < objectives; k++ {
			ys[k][i] = s.Objs[k]
		}
	}
	return x, ys, nil
}

// fitForests trains one regressor per objective over the shared presorted
// column matrix with per-objective target columns ys. The per-objective
// fits are independent, only read cols, and run in parallel, with the
// worker budget split between them so the tree-level parallelism inside
// each forest.Refit does not oversubscribe the machine by a factor of
// Objectives. Cancellation is checked before each fit starts. Alongside the
// forests it returns each one's OOB error and the sample count behind it
// (0 ⇒ the error is NaN/undefined, not perfect).
func fitForests(ctx context.Context, cols *forest.Columns, ys [][]float64, o Options, iter int) ([]*forest.Forest, []float64, []int, error) {
	// Forest.Workers (or, unset, the run's Workers) bounds the TOTAL
	// tree-fitting parallelism; divide it across the concurrent
	// per-objective fits.
	totalFitWorkers := o.Forest.Workers
	if totalFitWorkers <= 0 {
		totalFitWorkers = o.Workers
	}
	innerWorkers := (totalFitWorkers + o.Objectives - 1) / o.Objectives
	if innerWorkers < 1 {
		innerWorkers = 1
	}
	forests := make([]*forest.Forest, o.Objectives)
	oob := make([]float64, o.Objectives)
	oobN := make([]int, o.Objectives)
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
		oob[k] = f.OOBError()
		oobN[k] = f.OOBSamples()
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return forests, oob, oobN, nil
}

// predictionPool returns the pool X of Algorithm 1: every feasible index
// when the space fits under cap, otherwise up to cap fresh indices drawn by
// the run's sampler (fewer on a tightly constrained space) plus every
// evaluated index (so the predicted front can stabilize onto measured points
// and the loop can converge).
func predictionPool(space *param.Space, rng *rand.Rand, sampler Sampler, poolCap int, evaluated map[int64]int) []int64 {
	if space.Size() <= int64(poolCap) {
		return space.FeasibleIndices()
	}
	pool := sampler.Draw(space, rng, poolCap)
	seen := make(map[int64]struct{}, len(pool))
	for _, idx := range pool {
		seen[idx] = struct{}{}
	}
	// Append the evaluated indices in sorted order: ranging over the map
	// directly would make pool order — and therefore tie-breaking in the
	// predicted front — vary across runs with an identical seed.
	extra := make([]int64, 0, len(evaluated))
	for idx := range evaluated {
		if _, dup := seen[idx]; !dup {
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
