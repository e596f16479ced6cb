package catalog

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/param"
	"repro/internal/slambench"
)

// builtins returns the standard problem set for the given dataset scale
// ("full", "dse", or "test"), with power as a third objective when
// requested: every benchmark × platform pair plus Synthetic.
func builtins(scale string, power bool) ([]Problem, error) {
	objs := slambench.RuntimeAccuracy
	if power {
		objs = slambench.RuntimeAccuracyPower
	}
	var out []Problem
	for _, name := range slambench.Names {
		b, err := slambench.ByName(name, scale)
		if err != nil {
			return nil, err
		}
		for _, dev := range device.Platforms() {
			out = append(out, Problem{
				Name:        b.Name() + "/" + dev.Name,
				Description: fmt.Sprintf("%s on %s (%s dataset)", b.Name(), dev.Name, scale),
				Space:       b.Space(),
				Eval:        slambench.Evaluator(b, dev, objs),
				Objectives:  objs.Names(),
			})
		}
	}
	return append(out, Synthetic()), nil
}

// Synthetic is a dataset-free two-objective toy space, useful for
// exercising a deployment without paying for SLAM evaluations.
func Synthetic() Problem {
	space := param.MustSpace(
		param.Grid("a", 0, 4, 40),
		param.Grid("b", 0, 4, 40),
		param.Levels("c", 1, 2, 3),
	)
	eval := core.EvaluatorFunc(func(cfg param.Config) []float64 {
		a, b, c := cfg[0], cfg[1], cfg[2]
		return []float64{
			a + float64(0.5*math.Sin(3*b)) + float64(0.05*c) + 1.5,
			b + float64(0.5*math.Cos(2*a)) + 1.5,
		}
	})
	return Problem{
		Name:        "synthetic",
		Description: "dataset-free two-objective toy space for smoke tests",
		Space:       space,
		Eval:        eval,
		Objectives:  []string{"f0", "f1"},
	}
}

// ModelCtor builds a builtin evaluator model over a spec-declared space.
// The objectives slice is the spec's objective names; a model that computes
// a fixed-length vector must reject a spec declaring a different count.
type ModelCtor func(space *param.Space, objectives []string) (core.Evaluator, error)

// models are the builtin evaluator models a spec can bind with
// "builtin:<name>". They are deterministic analytic surrogates — cost
// models, not measurements — so spec-defined catalogs run (and reproduce
// byte-identically) anywhere: here and in Synthetic, every product that is
// added to or subtracted from is rounded first (float64(x*y) + z), and the
// Go spec forbids fusing across the conversion, so every architecture
// computes the same bits.
var models = map[string]ModelCtor{
	"compiler-model":    compilerModel,
	"dbms-model":        dbmsModel,
	"constrained-model": constrainedModel,
}

// BuiltinModels lists the model names specs may bind, for error messages
// and docs.
func BuiltinModels() []string {
	out := make([]string, 0, len(models))
	for name := range models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup resolves the named parameters to config indices, failing on any
// name the space does not declare — a spec bound to a builtin model must
// provide exactly the dimensions the model reads.
func lookup(space *param.Space, names ...string) ([]int, error) {
	idx := make([]int, len(names))
	for i, n := range names {
		j := space.IndexOfName(n)
		if j < 0 {
			return nil, fmt.Errorf("catalog: model needs parameter %q, spec does not declare it", n)
		}
		idx[i] = j
	}
	return idx, nil
}

func wantObjectives(objectives []string, n int) error {
	if len(objectives) != n {
		return fmt.Errorf("catalog: model computes %d objectives, spec declares %d", n, len(objectives))
	}
	return nil
}

// compilerModel is an analytic cost surrogate for a compiler-flag space:
// runtime improves with optimization, unrolling, vectorization, and
// inlining (with diminishing or reversing returns), while binary size pays
// for exactly those choices. Parameters: opt-level, unroll, unroll-factor,
// vectorize, inline-threshold, codegen-units, lto. Objectives: 2.
func compilerModel(space *param.Space, objectives []string) (core.Evaluator, error) {
	if err := wantObjectives(objectives, 2); err != nil {
		return nil, err
	}
	idx, err := lookup(space, "opt-level", "unroll", "unroll-factor", "vectorize",
		"inline-threshold", "codegen-units", "lto")
	if err != nil {
		return nil, err
	}
	return core.EvaluatorFunc(func(cfg param.Config) []float64 {
		opt := cfg[idx[0]]
		unroll := float64(cfg[idx[1]] * cfg[idx[2]])
		vec := cfg[idx[3]]
		inl := math.Log2(cfg[idx[4]])
		cgu := cfg[idx[5]]
		lto := cfg[idx[6]]
		runtime := 10.0 * math.Exp(-0.45*opt) *
			(1 - float64(0.06*math.Min(unroll, 4)) + float64(0.01*math.Max(unroll-4, 0))) *
			(1 - float64(0.18*vec)) * (1 - float64(0.02*(inl-4))) * (1 - float64(0.08*lto)) *
			(1 + float64(0.015*cgu))
		size := 180 * (1 + float64(0.10*opt)) * (1 + float64(0.03*unroll)) * (1 + float64(0.05*vec)) *
			(1 + float64(0.04*(inl-4))) * (1 - float64(0.10*lto))
		return []float64{runtime, size}
	}), nil
}

// dbmsModel is an analytic latency/memory surrogate for a DBMS knob space.
// Parameters: buffer-pool-mb, wal-buffer-mb, max-connections,
// checkpoint-interval-s, compression, async-commit, worker-threads.
// Objectives: 2.
func dbmsModel(space *param.Space, objectives []string) (core.Evaluator, error) {
	if err := wantObjectives(objectives, 2); err != nil {
		return nil, err
	}
	idx, err := lookup(space, "buffer-pool-mb", "wal-buffer-mb", "max-connections",
		"checkpoint-interval-s", "compression", "async-commit", "worker-threads")
	if err != nil {
		return nil, err
	}
	return core.EvaluatorFunc(func(cfg param.Config) []float64 {
		pool := cfg[idx[0]]
		wal := cfg[idx[1]]
		conns := cfg[idx[2]]
		ckpt := cfg[idx[3]]
		compress := cfg[idx[4]]
		async := cfg[idx[5]]
		threads := cfg[idx[6]]
		// Bigger caches cut misses; checkpoints and compression trade
		// latency for durability and space; threads help until contention.
		miss := 40 / math.Log2(pool)
		latency := 2.0 + miss + 80/wal + 300/ckpt +
			float64(1.5*compress) - float64(2.5*async) +
			float64(0.004*conns) + 12/threads + float64(0.12*threads)
		memory := pool + wal + float64(0.6*conns) + float64(14*threads) + float64((1-float64(0.3*compress))*256)
		return []float64{latency, memory}
	}), nil
}

// constrainedModel is the objective for the constraint-heavy synthetic
// space: a shifted sphere against a spread reward, interesting only on the
// feasible chain x0 < x1 < x2 < x3. Parameters: x0..x3, gate.
// Objectives: 2.
func constrainedModel(space *param.Space, objectives []string) (core.Evaluator, error) {
	if err := wantObjectives(objectives, 2); err != nil {
		return nil, err
	}
	idx, err := lookup(space, "x0", "x1", "x2", "x3", "gate")
	if err != nil {
		return nil, err
	}
	return core.EvaluatorFunc(func(cfg param.Config) []float64 {
		x0, x1, x2, x3 := cfg[idx[0]], cfg[idx[1]], cfg[idx[2]], cfg[idx[3]]
		gate := cfg[idx[4]]
		sphere := float64((x0-1)*(x0-1)) + float64((x1-2)*(x1-2)) + float64((x2-3)*(x2-3)) + float64((x3-4)*(x3-4))
		spread := 16 - float64((x3-x0)*(x3-x0)) + float64(0.5*gate)
		return []float64{sphere, spread}
	}), nil
}
