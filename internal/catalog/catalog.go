// Package catalog is the problem registry shared by the coordinator daemon
// (cmd/hypermapperd) and the worker daemon (cmd/hypermapper-worker):
// builtin problems register into it at startup and declarative spec files
// (internal/spec) load into it, either from a -problems directory or at
// runtime via POST /problems. Both daemons build their catalog through one
// bootstrap (Daemon) and register runtime specs through one loader
// (Registry.AddSpecData), because the worker protocol identifies
// evaluators by name only: a coordinator and its workers agree on problem
// names, spaces and evaluator semantics only if both sides build them
// identically.
package catalog

import (
	"fmt"
	"sort"
	"sync"

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

// Registry is a named problem collection with deterministic iteration
// order. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	problems map[string]Problem
	logf     func(format string, args ...any)
}

// NewRegistry returns an empty registry. logf receives the failure log of
// every bridge evaluator the registry materializes (AddSpecData, LoadDir);
// nil silences them, which is what a daemon's -quiet and -validate modes
// want instead of bridge chatter on the process-global logger.
func NewRegistry(logf func(format string, args ...any)) *Registry {
	return &Registry{problems: make(map[string]Problem), logf: logf}
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

// Register validates and adds a problem, replacing any existing problem of
// the same name (later wins, so a spec file can override a builtin).
func (r *Registry) Register(p Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems[p.Name] = p
	return nil
}

// Get returns the named problem.
func (r *Registry) Get(name string) (Problem, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.problems[name]
	return p, ok
}

// Problems returns every registered problem, sorted by name.
func (r *Registry) Problems() []Problem {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Problem, 0, len(r.problems))
	for _, p := range r.problems {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
