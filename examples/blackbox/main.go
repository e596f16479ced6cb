// Bring-your-own-problem through the exec bridge: a declarative spec binds
// a standalone objective binary (./objective, any language would do) as
// the evaluator, and the engine drives it over JSON-lines without a single
// problem-specific line of Go. See docs/SCENARIOS.md for the spec format.
package main

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/spec"
)

var problemSpec = &spec.Spec{
	Version: spec.Version,
	Name:    "blackbox-demo",
	Parameters: []spec.ParamSpec{
		{Name: "x", Kind: "grid", Low: 0, High: 5, Points: 26},
		{Name: "y", Kind: "grid", Low: 0, High: 5, Points: 26},
	},
	Constraints: []spec.Constraint{{Then: "y <= x"}},
	Objectives:  []string{"distance", "cost"},
	Evaluator:   "exec:go run ./objective",
}

func main() {
	problem, err := catalog.FromSpec(problemSpec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("exploring %q (%d of %d configs feasible) via %s\n",
		problem.Name, len(problem.Space.FeasibleIndices()), problem.Space.Size(),
		problemSpec.Evaluator)

	res, err := core.Run(problem.Space, problem.Eval, core.Options{
		Objectives:    len(problem.Objectives),
		RandomSamples: 30,
		MaxIterations: 2,
		MaxBatch:      10,
		Seed:          1,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("front after %d evaluations:\n", len(res.Samples))
	for _, pt := range res.Front {
		fmt.Printf("  %-18s distance=%.3f cost=%.3f\n",
			problem.Space.FormatConfig(problem.Space.AtIndex(pt.ID)), pt.Objs[0], pt.Objs[1])
	}
}
