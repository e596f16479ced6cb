// Package catalog builds the problems the coordinator daemon
// (cmd/hypermapperd) and the worker daemon (cmd/hypermapper-worker) serve:
// the builtin problems and declarative spec files (internal/spec), either
// from a -problems directory at startup or at runtime via POST /problems,
// with the exec and HTTP bridges (bridge.go) for specs that bind a user
// program. Both daemons build their startup list through one bootstrap
// (Daemon.Catalog) and load a runtime spec through one loader
// (FromSpecData), because the worker protocol identifies evaluators by name
// only: a coordinator and its workers agree on problem names, spaces and
// evaluator semantics only if both sides build them identically. What a daemon serves after startup is its own registry's
// business (server.Manager, worker.Server), not this package's.
package catalog

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/param"
)

// Problem is one named optimization target, daemon-agnostic: hypermapperd
// registers it as is (server.Problem is an alias of this type),
// hypermapper-worker registers it as a worker.Problem.
type Problem struct {
	// Name identifies the problem in run requests and, under a remote
	// evaluation pool, on the workers — both sides must use one name.
	Name string
	// Description is the human-readable GET /problems summary.
	Description string
	// Space is the design space explored.
	Space *param.Space
	// Eval measures one configuration in-process.
	Eval core.Evaluator
	// Objectives names the evaluator's outputs, in order; its length is
	// the objective count.
	Objectives []string
}

// Validate reports whether the problem is complete enough to back
// sessions: a name, a space, an evaluator and at least one objective.
func (p Problem) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("catalog: problem with an empty name")
	case p.Space == nil:
		return fmt.Errorf("catalog: problem %q has no space", p.Name)
	case p.Eval == nil:
		return fmt.Errorf("catalog: problem %q has no evaluator", p.Name)
	case len(p.Objectives) == 0:
		return fmt.Errorf("catalog: problem %q has no objectives", p.Name)
	}
	return nil
}

// byName returns problems as a catalog: one problem per name, the later
// of two with the same name (so a spec file can override a builtin), sorted
// by name, each one valid.
func byName(problems []Problem) ([]Problem, error) {
	last := make(map[string]Problem, len(problems))
	for _, p := range problems {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		last[p.Name] = p
	}
	out := make([]Problem, 0, len(last))
	for _, p := range last {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b Problem) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}
