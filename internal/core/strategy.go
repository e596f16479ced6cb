package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/param"
	"repro/internal/pareto"
)

// This file holds the search strategy: the three decisions of Algorithm 1 a
// run may make differently, named by one Strategy value —
//
//   - the draw: which configurations seed the run and populate the
//     prediction pool (the paper draws uniformly);
//   - the fit: what models are fit on the measurements (the paper fits one
//     regression forest per objective);
//   - the batch: which predicted-front candidates are measured next (the
//     paper takes all of P − X_out, thinned evenly when over budget).
//
// The zero Strategy IS the paper's loop. The alternates implement the
// authors' follow-up ("Practical design space exploration", MASCOTS 2019):
// prior-guided sampling, a feasibility classifier, and acquisition-ranked
// batch selection. Every decision is a pure function of its inputs and the
// run RNG, but the alternates consume that RNG differently than the
// default, so runs are only byte-comparable when their whole strategy
// matches — which is why RunFingerprint includes the strategy's names.

// Strategy names a run's search strategy: the "strategy" block of a run
// request and of a quality-sweep report, and Options.Strategy. The zero
// value is the paper-faithful default on every axis — uniform sampling,
// plain per-objective forests, even thinning.
type Strategy struct {
	// Sampler names the bootstrap/pool sampler: "uniform" (default) or
	// "prior", which honors the per-parameter prior weights declared in
	// the problem spec (priorless parameters stay uniform).
	Sampler string `json:"sampler,omitempty"`
	// Feasibility adds a forest classifier, trained on valid/invalid
	// outcomes, that filters candidates predicted infeasible before batch
	// selection (and down-weights the acquisition ranking).
	Feasibility bool `json:"feasibility,omitempty"`
	// Selector names the batch selector: "even-thin" (default) or
	// "acquisition" (hypervolume-contribution / crowding ranking).
	Selector string `json:"selector,omitempty"`
}

// Validate reports whether every name resolves.
func (s Strategy) Validate() error {
	switch s.Sampler {
	case "", "uniform", "prior":
	default:
		return fmt.Errorf(`core: unknown sampler %q (want "uniform" or "prior")`, s.Sampler)
	}
	switch s.Selector {
	case "", "even-thin", "acquisition":
	default:
		return fmt.Errorf(`core: unknown selector %q (want "even-thin" or "acquisition")`, s.Selector)
	}
	return nil
}

// StrategyInfo is a resolved strategy: the wire name of each decision,
// defaults filled in. RunStatus echoes it, and RunFingerprint includes it —
// resume must refuse a journal recorded under a different strategy, because
// the RNG sequences would diverge.
type StrategyInfo struct {
	Sampler  string `json:"sampler"`
	Modeler  string `json:"modeler"`
	Selector string `json:"selector"`
}

// Info names the decisions a run under s makes. A strategy that does not
// Validate gets the default names.
func (s Strategy) Info() StrategyInfo {
	info := StrategyInfo{Sampler: "uniform", Modeler: "forest", Selector: "even-thin"}
	if s.Validate() != nil {
		return info
	}
	if s.Sampler == "prior" {
		info.Sampler = "prior"
	}
	if s.Feasibility {
		info.Modeler = "feasibility"
	}
	if s.Selector == "acquisition" {
		info.Selector = "acquisition"
	}
	return info
}

// draw returns up to n distinct feasible configuration indices for the
// bootstrap or a subsampled prediction pool (fewer on a heavily constrained
// space): weighted by the spec's priors under the prior sampler — uniform
// on a space that declares none — and uniform otherwise.
func (s Strategy) draw(space *param.Space, rng *rand.Rand, n int) []int64 {
	if s.Sampler == "prior" {
		return space.SampleIndicesWeighted(rng, n)
	}
	return space.SampleIndices(rng, n)
}

// Feasibility-classifier constants: the constraint observations drawn after
// the bootstrap (Options.probes overrides the count), the predicted validity
// probability below which a candidate is filtered, and the classifier's seed
// stream, placed away from the per-objective ones (Seed + k·7919 +
// iter·104729).
const (
	feasibilityProbes     = 512
	feasibilityThreshold  = 0.5
	feasibilitySeedOffset = 611_953
)

// selectBatch picks at most maxBatch candidate IDs to measure from the
// predicted-front candidates: all of them, thinned evenly along the front
// when over budget, or the acquisition ranking's best. feas, when non-nil,
// is each candidate's predicted validity probability.
func (s Strategy) selectBatch(cands []pareto.Point, feas []float64, maxBatch int) []int64 {
	if s.Selector == "acquisition" {
		return acquire(cands, feas, maxBatch)
	}
	return thin(pareto.IDs(cands), maxBatch)
}

// acquire ranks candidates by their contribution to the predicted front
// instead of taking an even slice: with two objectives each candidate is
// scored by its exclusive hypervolume contribution within the candidate set
// (how much front area only it covers), with three or more by its NSGA-II
// crowding distance (boundary candidates score +Inf, so the extremes always
// survive). Scores are down-weighted by the predicted validity probability
// feas when a classifier is active. The maxBatch highest-scoring candidates
// are returned in front order; ties break by ascending index, so selection
// is deterministic.
func acquire(cands []pareto.Point, feas []float64, maxBatch int) []int64 {
	if len(cands) <= maxBatch {
		return pareto.IDs(cands)
	}
	scores := contributionScores(cands)
	for i, p := range feas {
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
	order = order[:maxBatch]
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
