package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/forest"
	"repro/internal/param"
	"repro/internal/pareto"
)

// This file defines the search-strategy pipeline: the three pluggable
// stages RunContext's loop is factored into. Algorithm 1 is a composition
// of exactly these decisions —
//
//   - Sampler: which configurations seed the run and populate the
//     prediction pool (the paper draws uniformly);
//   - Modeler: what models are fit on the measurements (the paper fits one
//     regression forest per objective);
//   - Selector: which predicted-front candidates are measured next (the
//     paper takes all of P − X_out, thinned evenly when over budget).
//
// The defaults (UniformSampler, ForestModeler, EvenThinSelector) ARE the
// paper's loop, byte-identical on the same seed to the engine before the
// pipeline existed — they call the same code in the same order with the
// same RNG. The alternates implement the authors' follow-up ("Practical
// design space exploration", MASCOTS 2019): prior-guided sampling, a
// feasibility classifier, and acquisition-ranked batch selection.
//
// Determinism contract: every implementation must be a pure function of
// its inputs (including the RNG state it is handed). Non-default stages
// may consume the run RNG differently than the default — runs are only
// byte-comparable across engine versions when their whole strategy
// matches, which is why RunFingerprint includes the strategy identity.

// ---- Sampler ----

// Sampler draws design-space indices for the run's random phases: the
// bootstrap and, on spaces too large to enumerate under PoolCap, each
// iteration's fresh prediction-pool draw.
type Sampler interface {
	// Draw returns up to n distinct feasible configuration indices, using
	// rng for every random choice. On heavily constrained spaces it may
	// return fewer than n — there may not be n feasible configurations.
	Draw(space *param.Space, rng *rand.Rand, n int) []int64
	// Name is the stage's stable wire name ("uniform", "prior"; "custom"
	// for an implementation outside this package).
	Name() string
}

// UniformSampler draws uniformly at random — Algorithm 1's sampling and
// the default. It delegates to Space.SampleIndices with the run RNG,
// consuming it exactly as the pre-pipeline engine did, which is what keeps
// default-strategy runs byte-identical across engine versions.
type UniformSampler struct{}

// Draw implements Sampler.
func (UniformSampler) Draw(space *param.Space, rng *rand.Rand, n int) []int64 {
	return space.SampleIndices(rng, n)
}

// Name implements Sampler.
func (UniformSampler) Name() string { return "uniform" }

// PriorSampler draws from the per-parameter prior weights declared in the
// problem spec (param.Parameter.Priors): levels the spec author believes
// in are sampled proportionally more often, so the bootstrap and the
// prediction pool concentrate where good configurations are expected. On
// a space without priors it degrades to the uniform draw.
type PriorSampler struct{}

// Draw implements Sampler.
func (PriorSampler) Draw(space *param.Space, rng *rand.Rand, n int) []int64 {
	return space.SampleIndicesWeighted(rng, n)
}

// Name implements Sampler.
func (PriorSampler) Name() string { return "prior" }

// ---- Modeler ----

// Training is one iteration's model-fitting input.
type Training struct {
	// Cols is the presorted column-major training matrix: one row per
	// valid measured sample, in evaluation order (warm-started across
	// iterations on the incremental path).
	Cols *forest.Columns
	// Ys holds the per-objective target columns, aligned with Cols rows.
	Ys [][]float64
	// FeasX/FeasY are encoded feasibility observations — rows labeled 1
	// (valid) or 0 (invalid) — collected by the engine only when the
	// modeler implements FeasibilityLabeler. They accumulate across
	// iterations: constraint probes drawn after the bootstrap, plus every
	// measured outcome.
	FeasX [][]float64
	FeasY []float64
}

// Models is a Modeler's output: the per-objective regressors Algorithm 1
// predicts the pool with, their OOB diagnostics, and an optional
// feasibility classifier.
type Models struct {
	// Objectives holds one fitted forest per objective, in order.
	Objectives []*forest.Forest
	// OOBError/OOBSamples are the per-objective OOB MSE (NaN when
	// undefined) and the sample counts behind them.
	OOBError   []float64
	OOBSamples []int
	// Feasibility, when non-nil, predicts the probability a configuration
	// is valid; the engine filters predicted-front candidates whose
	// probability falls below the modeler's threshold, and selectors may
	// down-weight scores by it.
	Feasibility *forest.Classifier
}

// Modeler fits one iteration's models from the accumulated measurements.
type Modeler interface {
	Fit(ctx context.Context, tr Training, o Options, iter int) (*Models, error)
	// Name is the stage's stable wire name ("forest", "feasibility").
	Name() string
}

// FeasibilityLabeler marks modelers that want feasibility observations
// collected. The engine then draws constraint probes after the bootstrap
// and labels every measured outcome — extra RNG consumption, so enabling
// it (like any non-default stage) changes the run's random sequence.
type FeasibilityLabeler interface {
	// WantsFeasibilityLabels reports whether Training.FeasX/FeasY should
	// be populated.
	WantsFeasibilityLabels() bool
	// FeasibilityProbes is how many constraint observations to draw right
	// after the bootstrap (uniform index draws labeled by the space's
	// predicate, no evaluator calls).
	FeasibilityProbes() int
	// FeasibilityThreshold is the candidate-filter cutoff: predicted-front
	// points whose predicted validity probability falls below it are
	// dropped before selection — unless that would drop every candidate,
	// in which case the filter stands aside rather than stall the run.
	FeasibilityThreshold() float64
}

// ForestModeler fits one regression forest per objective — Algorithm 1's
// models, and the default.
type ForestModeler struct{}

// Name implements Modeler.
func (ForestModeler) Name() string { return "forest" }

// Fit implements Modeler.
func (ForestModeler) Fit(ctx context.Context, tr Training, o Options, iter int) (*Models, error) {
	forests, oob, oobN, err := fitForests(ctx, tr.Cols, tr.Ys, o, iter)
	if err != nil {
		return nil, err
	}
	return &Models{Objectives: forests, OOBError: oob, OOBSamples: oobN}, nil
}

// feasibilitySeedOffset places the feasibility forest's seed stream away
// from the per-objective streams (o.Seed + k·7919 + iter·104729).
const feasibilitySeedOffset = 611_953

// FeasibilityModeler fits the per-objective forests plus a third forest in
// classification mode (forest.Classifier), trained on observed
// valid/invalid outcomes. It complements declared param.Space constraint
// predicates: the classifier learns the feasible region from observations,
// so predicted-front candidates that smell infeasible are filtered (and
// down-weighted by acquisition selectors) even where the predicate is too
// expensive to enumerate — or where invalidity only shows up as a failed
// measurement. The zero value selects the documented defaults.
type FeasibilityModeler struct {
	// Probes is the number of constraint observations drawn after the
	// bootstrap (default 512).
	Probes int
	// Threshold is the candidate-filter cutoff (default 0.5).
	Threshold float64
}

// Name implements Modeler.
func (FeasibilityModeler) Name() string { return "feasibility" }

// WantsFeasibilityLabels implements FeasibilityLabeler.
func (FeasibilityModeler) WantsFeasibilityLabels() bool { return true }

// FeasibilityProbes implements FeasibilityLabeler.
func (m FeasibilityModeler) FeasibilityProbes() int {
	if m.Probes > 0 {
		return m.Probes
	}
	return 512
}

// FeasibilityThreshold implements FeasibilityLabeler.
func (m FeasibilityModeler) FeasibilityThreshold() float64 {
	if m.Threshold > 0 {
		return m.Threshold
	}
	return 0.5
}

// Fit implements Modeler: the default per-objective fit, plus the
// feasibility classifier when both classes have been observed (a one-class
// training set would yield a constant classifier that filters nothing but
// still costs a fit).
func (m FeasibilityModeler) Fit(ctx context.Context, tr Training, o Options, iter int) (*Models, error) {
	models, err := ForestModeler{}.Fit(ctx, tr, o, iter)
	if err != nil {
		return nil, err
	}
	if len(tr.FeasX) > 0 && hasBothClasses(tr.FeasY) {
		fo := o.Forest
		fo.Workers = o.Workers
		fo.Seed = o.Seed + feasibilitySeedOffset + int64(iter)*104_729
		cls, err := forest.FitClassifier(tr.FeasX, tr.FeasY, fo)
		if err != nil {
			return nil, err
		}
		models.Feasibility = cls
	}
	return models, nil
}

func hasBothClasses(y []float64) bool {
	var saw0, saw1 bool
	for _, v := range y {
		if v == 0 {
			saw0 = true
		} else {
			saw1 = true
		}
		if saw0 && saw1 {
			return true
		}
	}
	return false
}

// ---- Selector ----

// Selection is a Selector's input: one iteration's unevaluated
// predicted-front candidates.
type Selection struct {
	// Space is the run's design space.
	Space *param.Space
	// Candidates are the predicted-front points not yet measured, in front
	// order (ascending first objective). Their Objs slices alias engine
	// buffers that the next iteration overwrites — selectors must not
	// retain them past Select.
	Candidates []pareto.Point
	// Feasibility, when non-nil, is the per-candidate predicted validity
	// probability from the feasibility classifier, aligned with
	// Candidates.
	Feasibility []float64
	// MaxBatch caps how many indices Select may return.
	MaxBatch int
}

// Selector chooses which predicted-front candidates to measure.
type Selector interface {
	// Select returns at most MaxBatch candidate IDs to evaluate, drawn
	// from Selection.Candidates. Implementations must be deterministic.
	Select(sel Selection) []int64
	// Name is the stage's stable wire name ("even-thin", "acquisition").
	Name() string
}

// EvenThinSelector is Algorithm 1's batch choice and the default: measure
// every candidate, thinning evenly along the front when over budget —
// byte-identical to the engine's historical thinning.
type EvenThinSelector struct{}

// Name implements Selector.
func (EvenThinSelector) Name() string { return "even-thin" }

// Select implements Selector.
func (EvenThinSelector) Select(sel Selection) []int64 {
	todo := pareto.IDs(sel.Candidates)
	if len(todo) > sel.MaxBatch {
		todo = thin(todo, sel.MaxBatch)
	}
	return todo
}

// AcquisitionSelector ranks candidates by their contribution to the
// predicted front instead of taking an even slice: with two objectives
// each candidate is scored by its exclusive hypervolume contribution
// within the candidate set (how much front area only it covers), with
// three or more by its NSGA-II crowding distance (boundary candidates
// score +Inf, so the extremes always survive). When a feasibility
// classifier is active, scores are down-weighted by the predicted validity
// probability. The MaxBatch highest-scoring candidates are returned in
// front order; ties break by ascending index, so selection is
// deterministic.
type AcquisitionSelector struct{}

// Name implements Selector.
func (AcquisitionSelector) Name() string { return "acquisition" }

// Select implements Selector.
func (AcquisitionSelector) Select(sel Selection) []int64 {
	cands := sel.Candidates
	if len(cands) <= sel.MaxBatch {
		return pareto.IDs(cands)
	}
	scores := contributionScores(cands)
	for i, p := range sel.Feasibility {
		if p <= 0 {
			scores[i] = 0 // not scores[i] *= 0: Inf·0 would poison the sort with NaN
		} else {
			scores[i] *= p
		}
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if scores[a] != scores[b] {
			return cmp.Compare(scores[b], scores[a]) // highest score first
		}
		return cmp.Compare(cands[a].ID, cands[b].ID)
	})
	order = order[:sel.MaxBatch]
	// Evaluate in front order, like even thinning does, so downstream
	// order-sensitive artifacts (journal records, cache walks) stay
	// front-ordered regardless of the selector.
	slices.Sort(order)
	ids := make([]int64, len(order))
	for i, j := range order {
		ids[i] = cands[j].ID
	}
	return ids
}

// contributionScores scores each candidate of a predicted front by how
// much of the front only it covers.
func contributionScores(cands []pareto.Point) []float64 {
	if len(cands) == 0 {
		return nil
	}
	if len(cands[0].Objs) == 2 {
		return hvContributions2D(cands)
	}
	return crowdingDistances(cands)
}

// hvContributions2D computes exclusive hypervolume contributions of
// front-ordered 2-objective candidates (ascending obj0, descending obj1)
// against a local reference: the candidate nadir padded by 10% of the
// candidate range, so boundary candidates keep a finite positive score.
func hvContributions2D(cands []pareto.Point) []float64 {
	n := len(cands)
	max0, max1 := cands[0].Objs[0], cands[0].Objs[1]
	min0, min1 := max0, max1
	for _, p := range cands[1:] {
		max0 = math.Max(max0, p.Objs[0])
		min0 = math.Min(min0, p.Objs[0])
		max1 = math.Max(max1, p.Objs[1])
		min1 = math.Min(min1, p.Objs[1])
	}
	// Each pad is rounded before it is added: never fused.
	ref0 := max0 + float64(0.1*(max0-min0))
	ref1 := max1 + float64(0.1*(max1-min1))
	if ref0 == max0 {
		ref0 = max0 + 1 // degenerate range: any positive pad works
	}
	if ref1 == max1 {
		ref1 = max1 + 1
	}
	out := make([]float64, n)
	for i, p := range cands {
		xNext := ref0
		if i+1 < n {
			xNext = cands[i+1].Objs[0]
		}
		yPrev := ref1
		if i > 0 {
			yPrev = cands[i-1].Objs[1]
		}
		w := xNext - p.Objs[0]
		h := yPrev - p.Objs[1]
		if w < 0 || h < 0 {
			// Defensive: candidates that are not in strict front order
			// contribute nothing rather than a negative area.
			continue
		}
		out[i] = w * h
	}
	return out
}

// crowdingDistances is the NSGA-II density estimate for k ≥ 3 objectives:
// per objective, the normalized gap between each candidate's neighbors,
// summed; boundary candidates get +Inf.
func crowdingDistances(cands []pareto.Point) []float64 {
	n := len(cands)
	k := len(cands[0].Objs)
	out := make([]float64, n)
	order := make([]int, n)
	for j := 0; j < k; j++ {
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			if cands[a].Objs[j] != cands[b].Objs[j] {
				return cmp.Compare(cands[a].Objs[j], cands[b].Objs[j])
			}
			return cmp.Compare(cands[a].ID, cands[b].ID)
		})
		out[order[0]] = math.Inf(1)
		out[order[n-1]] = math.Inf(1)
		span := cands[order[n-1]].Objs[j] - cands[order[0]].Objs[j]
		if span <= 0 {
			continue
		}
		for i := 1; i < n-1; i++ {
			oi := order[i]
			if math.IsInf(out[oi], 1) {
				continue
			}
			out[oi] += (cands[order[i+1]].Objs[j] - cands[order[i-1]].Objs[j]) / span
		}
	}
	return out
}

// ---- Strategy resolution (the wire names the server and tools speak) ----

// Strategy names a search-strategy pipeline by its stages' wire names: the
// "strategy" block of a run request and of a quality-sweep report. The zero
// value is the paper-faithful default on every axis — uniform sampling,
// plain per-objective forests, even thinning — and produces byte-identical
// results to leaving the Options stages nil.
type Strategy struct {
	// Sampler names the bootstrap/pool sampler: "uniform" (default) or
	// "prior", which honors the per-parameter prior weights declared in
	// the problem spec (priorless parameters stay uniform).
	Sampler string `json:"sampler,omitempty"`
	// Feasibility enables the feasibility-classifier modeler: a forest
	// classifier trained on valid/invalid outcomes filters candidates
	// predicted infeasible before batch selection.
	Feasibility bool `json:"feasibility,omitempty"`
	// Selector names the batch selector: "even-thin" (default) or
	// "acquisition" (hypervolume-contribution / crowding ranking).
	Selector string `json:"selector,omitempty"`
}

// Apply resolves the strategy's names and installs the three stages in o.
// On an unknown name it returns an error and leaves o as it was.
func (s Strategy) Apply(o *Options) error {
	var sampler Sampler
	switch s.Sampler {
	case "", "uniform":
		sampler = UniformSampler{}
	case "prior":
		sampler = PriorSampler{}
	default:
		return fmt.Errorf(`core: unknown sampler %q (want "uniform" or "prior")`, s.Sampler)
	}
	var selector Selector
	switch s.Selector {
	case "", "even-thin":
		selector = EvenThinSelector{}
	case "acquisition":
		selector = AcquisitionSelector{}
	default:
		return fmt.Errorf(`core: unknown selector %q (want "even-thin" or "acquisition")`, s.Selector)
	}
	o.Sampler, o.Modeler, o.Selector = sampler, ForestModeler{}, selector
	if s.Feasibility {
		o.Modeler = FeasibilityModeler{}
	}
	return nil
}

// Validate reports whether every stage name resolves.
func (s Strategy) Validate() error { return s.Apply(new(Options)) }

// StrategyInfo is a resolved pipeline: the wire name each stage reports
// (Sampler.Name and friends), defaults filled in. RunStatus echoes it, and
// RunFingerprint includes it — resume must refuse a journal recorded under
// a different strategy, because the RNG sequences would diverge.
type StrategyInfo struct {
	Sampler  string `json:"sampler"`
	Modeler  string `json:"modeler"`
	Selector string `json:"selector"`
}

// StrategyInfo names the stages a run with these options executes.
func (o Options) StrategyInfo() StrategyInfo {
	o = o.withDefaults()
	return StrategyInfo{Sampler: o.Sampler.Name(), Modeler: o.Modeler.Name(), Selector: o.Selector.Name()}
}
