// Package quality measures search quality, not speed: it sweeps evaluation
// budgets over analytic problems and reports the hypervolume each search
// strategy reaches at each budget. The resulting curves are the
// optimization-quality counterpart of the performance benchmarks — CI runs
// them (`figures quality`, in cmd/figures) to publish BENCH_quality.json and
// to fail when a change makes the default strategy reach less hypervolume
// for the same evaluation budget.
//
// Comparability is the whole design: every run of one problem is scored
// against a single shared reference point, the per-objective nadir of the
// union of all valid measurements across every strategy, budget, and seed,
// padded by 10% of the union's range. A per-run reference would let a
// strategy "win" by sampling badly (pushing its own nadir out); the shared
// one makes hypervolume monotone in genuine front quality. Seeded runs are
// deterministic, so the report is byte-stable for fixed inputs and can be
// committed as a regression baseline.
package quality

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/pareto"
)

// Strategy names one search strategy to sweep. Empty names select the
// engine defaults, so the zero value (with a Name) is the paper-faithful
// baseline.
type Strategy struct {
	// Name labels the curve in the report (e.g. "default",
	// "feasibility+acquisition").
	Name string `json:"name"`
	// Strategy is the strategy itself, flattened into the same JSON
	// object: core's names, empty for the defaults.
	core.Strategy
}

// Point is one measured curve point: the evaluation budget requested and
// the mean-over-seeds outcome at that budget.
type Point struct {
	// Budget is the requested evaluation budget.
	Budget int `json:"budget"`
	// Samples is the mean number of valid configurations actually
	// measured (a converged run stops under budget).
	Samples float64 `json:"samples"`
	// Hypervolume is the mean measured-front hypervolume against the
	// problem's shared reference point.
	Hypervolume float64 `json:"hypervolume"`
}

// Curve is one (problem, strategy) hypervolume-vs-budget curve.
type Curve struct {
	Problem  string  `json:"problem"`
	Strategy string  `json:"strategy"`
	Points   []Point `json:"points"`
}

// Report is the whole sweep artifact (BENCH_quality.json).
type Report struct {
	Budgets    []int      `json:"budgets"`
	Seeds      []int64    `json:"seeds"`
	Strategies []Strategy `json:"strategies"`
	// Reference is the shared per-problem reference point the
	// hypervolumes are computed against, keyed by problem name — recorded
	// so curves from different sweeps are only compared when their
	// references agree.
	Reference map[string][]float64 `json:"reference"`
	Curves    []Curve              `json:"curves"`
}

// budgetOptions maps an evaluation budget onto engine budgets: a third of
// it bootstraps (≥ 10), a tenth sizes each active-learning batch (≥ 5),
// and the iteration cap spends the remainder.
func budgetOptions(p catalog.Problem, s Strategy, budget int, seed int64) core.Options {
	rs := max(10, budget/3)
	batch := max(5, budget/10)
	return core.Options{
		Objectives:    len(p.Objectives),
		RandomSamples: rs,
		MaxBatch:      batch,
		MaxIterations: max(1, (budget-rs+batch-1)/batch),
		Seed:          seed,
		Strategy:      s.Strategy,
	}
}

// run is one finished exploration, held until the problem's shared
// reference point is known.
type run struct {
	strategy int
	budget   int
	front    []pareto.Point
	samples  int
}

// Sweep runs every (problem, strategy, budget, seed) combination and
// assembles the curves. Runs of one problem share a memo-cache, so
// overlapping configurations across budgets and strategies are measured
// once.
func Sweep(ctx context.Context, problems []catalog.Problem, strategies []Strategy, budgets []int, seeds []int64) (*Report, error) {
	if len(problems) == 0 || len(strategies) == 0 || len(budgets) == 0 || len(seeds) == 0 {
		return nil, fmt.Errorf("quality: sweep needs problems, strategies, budgets, and seeds")
	}
	budgets = append([]int(nil), budgets...)
	sort.Ints(budgets)
	rep := &Report{
		Budgets:    budgets,
		Seeds:      append([]int64(nil), seeds...),
		Strategies: append([]Strategy(nil), strategies...),
		Reference:  make(map[string][]float64, len(problems)),
	}
	for _, p := range problems {
		runs, ref, err := sweepProblem(ctx, p, strategies, budgets, seeds)
		if err != nil {
			return nil, err
		}
		rep.Reference[p.Name] = ref
		for si, s := range strategies {
			curve := Curve{Problem: p.Name, Strategy: s.Name}
			for _, b := range budgets {
				var pt Point
				pt.Budget = b
				n := 0
				for _, r := range runs {
					if r.strategy != si || r.budget != b {
						continue
					}
					pt.Samples += float64(r.samples)
					pt.Hypervolume += pareto.Hypervolume(r.front, ref)
					n++
				}
				pt.Samples /= float64(n)
				pt.Hypervolume /= float64(n)
				curve.Points = append(curve.Points, pt)
			}
			rep.Curves = append(rep.Curves, curve)
		}
	}
	return rep, nil
}

// sweepProblem runs one problem's full grid and derives its shared
// reference point from the union of every run's valid measurements.
func sweepProblem(ctx context.Context, p catalog.Problem, strategies []Strategy, budgets []int, seeds []int64) ([]run, []float64, error) {
	cache := core.NewEvalCache()
	nadir := make([]float64, len(p.Objectives))
	ideal := make([]float64, len(p.Objectives))
	for k := range nadir {
		nadir[k] = math.Inf(-1)
		ideal[k] = math.Inf(1)
	}
	var runs []run
	for si, s := range strategies {
		for _, b := range budgets {
			for _, seed := range seeds {
				opts := budgetOptions(p, s, b, seed)
				opts.Cache = cache
				res, err := core.RunContext(ctx, p.Space, p.Eval, opts)
				if err != nil {
					return nil, nil, fmt.Errorf("quality: %s/%s budget %d seed %d: %w", p.Name, s.Name, b, seed, err)
				}
				for _, smp := range res.Samples {
					for k, v := range smp.Objs {
						if math.IsNaN(v) {
							continue
						}
						nadir[k] = math.Max(nadir[k], v)
						ideal[k] = math.Min(ideal[k], v)
					}
				}
				runs = append(runs, run{strategy: si, budget: b, front: res.Front, samples: len(res.Samples)})
			}
		}
	}
	ref := make([]float64, len(p.Objectives))
	for k := range ref {
		if math.IsInf(nadir[k], -1) {
			return nil, nil, fmt.Errorf("quality: %s: no valid measurement for objective %d", p.Name, k)
		}
		ref[k] = nadir[k] + float64(0.1*(nadir[k]-ideal[k])) // rounded before it is added: never fused
	}
	return runs, ref, nil
}

// curve finds one (problem, strategy) curve in the report.
func (r *Report) curve(problem, strategy string) (Curve, error) {
	for _, c := range r.Curves {
		if c.Problem == problem && c.Strategy == strategy {
			return c, nil
		}
	}
	return Curve{}, fmt.Errorf("quality: no curve for problem %q strategy %q", problem, strategy)
}

// Gate requires the candidate strategy to reach at least the baseline
// strategy's hypervolume — within a relative tolerance tol — at every
// measured budget of the given problem. This is the shipped acceptance
// gate: the advanced pipeline must never buy its features with front
// quality.
func (r *Report) Gate(problem, candidate, baseline string, tol float64) error {
	cand, err := r.curve(problem, candidate)
	if err != nil {
		return err
	}
	base, err := r.curve(problem, baseline)
	if err != nil {
		return err
	}
	if len(cand.Points) != len(base.Points) {
		return fmt.Errorf("quality: curve shapes differ (%d vs %d points)", len(cand.Points), len(base.Points))
	}
	for i, bp := range base.Points {
		cp := cand.Points[i]
		if cp.Hypervolume < bp.Hypervolume*(1-tol) {
			return fmt.Errorf("quality: %s: strategy %q hypervolume %.6g at budget %d below baseline %q %.6g (tolerance %g)",
				problem, candidate, cp.Hypervolume, cp.Budget, baseline, bp.Hypervolume, tol)
		}
	}
	return nil
}

// Check compares one strategy's curves in the current report against a
// committed baseline report: every (problem, budget) hypervolume must
// reach the baseline within a relative tolerance. Problems present only on
// one side are ignored — adding a spec must not invalidate the baseline —
// but a baseline problem the current sweep still ships must appear.
func Check(current, baseline *Report, strategy string, tol float64) error {
	checked := 0
	for _, bc := range baseline.Curves {
		if bc.Strategy != strategy {
			continue
		}
		cc, err := current.curve(bc.Problem, strategy)
		if err != nil {
			continue // problem no longer swept
		}
		// Hypervolumes are only comparable against one reference point.
		// Seeded runs are deterministic, so any drift means the sweep's
		// sampling behavior changed — the baseline must be regenerated
		// (and the change reviewed), not silently compared.
		if err := sameReference(current.Reference[bc.Problem], baseline.Reference[bc.Problem], tol); err != nil {
			return fmt.Errorf("quality: %s: %w; regenerate the committed baseline", bc.Problem, err)
		}
		byBudget := make(map[int]float64, len(cc.Points))
		for _, p := range cc.Points {
			byBudget[p.Budget] = p.Hypervolume
		}
		for _, bp := range bc.Points {
			hv, ok := byBudget[bp.Budget]
			if !ok {
				return fmt.Errorf("quality: %s: current sweep has no budget %d to compare", bc.Problem, bp.Budget)
			}
			if hv < bp.Hypervolume*(1-tol) {
				return fmt.Errorf("quality: %s: strategy %q hypervolume %.6g at budget %d regressed from baseline %.6g (tolerance %g)",
					bc.Problem, strategy, hv, bp.Budget, bp.Hypervolume, tol)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("quality: baseline has no %q curves to check against", strategy)
	}
	return nil
}

// sameReference reports whether two reference points agree within a
// relative tolerance per coordinate.
func sameReference(cur, base []float64, tol float64) error {
	if len(cur) != len(base) {
		return fmt.Errorf("reference point dimension changed (%d vs %d)", len(cur), len(base))
	}
	for k := range cur {
		if math.Abs(cur[k]-base[k]) > tol*math.Max(math.Abs(base[k]), 1) {
			return fmt.Errorf("reference point drifted: objective %d is %.6g, baseline %.6g", k, cur[k], base[k])
		}
	}
	return nil
}
