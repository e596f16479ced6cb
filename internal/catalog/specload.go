package catalog

import (
	"fmt"

	"repro/internal/spec"
)

// FromSpec materializes a declarative problem spec into a registrable
// Problem: the space is built with its constraints compiled in, and the
// evaluator binding resolves to a builtin model, an exec bridge, or an
// HTTP bridge (bridge.go). Exec and HTTP evaluators are constructed
// lazily enough to be safe here — no subprocess is started and no request
// is sent until the first evaluation.
func FromSpec(sp *spec.Spec) (Problem, error) {
	if err := sp.Validate(); err != nil {
		return Problem{}, err
	}
	space, err := sp.Space()
	if err != nil {
		return Problem{}, err
	}
	binding, err := spec.ParseBinding(sp.Evaluator)
	if err != nil {
		return Problem{}, fmt.Errorf("spec %q: %w", sp.Name, err)
	}
	p := Problem{
		Name:        sp.Name,
		Description: sp.Description,
		Space:       space,
		Objectives:  append([]string(nil), sp.Objectives...),
	}
	switch binding.Kind {
	case "builtin":
		ctor, ok := models[binding.Target]
		if !ok {
			return Problem{}, fmt.Errorf("spec %q: no builtin model %q (have %v)",
				sp.Name, binding.Target, BuiltinModels())
		}
		p.Eval, err = ctor(space, sp.Objectives)
		if err != nil {
			return Problem{}, fmt.Errorf("spec %q: %w", sp.Name, err)
		}
	case "exec":
		if p.Eval, err = NewExecEvaluator(binding.Target, space, len(sp.Objectives)); err != nil {
			return Problem{}, fmt.Errorf("spec %q: %w", sp.Name, err)
		}
	case "http":
		p.Eval = NewHTTPEvaluator(binding.Target, space, len(sp.Objectives))
	default:
		return Problem{}, fmt.Errorf("spec %q: unknown binding kind %q", sp.Name, binding.Kind)
	}
	return p, nil
}

// FromSpecData parses raw spec JSON and materializes it: the runtime loader
// both daemons hand to POST /problems (server.Config.SpecLoader,
// worker.Server.SetSpecLoader).
func FromSpecData(data []byte) (Problem, error) {
	sp, err := spec.Parse(data)
	if err != nil {
		return Problem{}, err
	}
	return FromSpec(sp)
}

// LoadDir materializes every *.json spec in dir and returns them as a
// catalog: sorted by name, the later file (by name) winning a name
// collision.
func LoadDir(dir string) ([]Problem, error) {
	problems, err := fromDir(dir)
	if err != nil {
		return nil, err
	}
	return byName(problems)
}

// fromDir materializes every *.json spec in dir, in file-name order.
func fromDir(dir string) ([]Problem, error) {
	specs, err := spec.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make([]Problem, len(specs))
	for i, sp := range specs {
		if out[i], err = FromSpec(sp); err != nil {
			return nil, err
		}
	}
	return out, nil
}
