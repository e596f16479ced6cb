package catalog

import (
	"fmt"
	"log"

	"repro/internal/spec"
	"repro/internal/worker"
)

// FromSpec materializes a declarative problem spec into a registrable
// Problem: the space is built with its constraints compiled in, and the
// evaluator binding resolves to a builtin model, an exec bridge, or an
// HTTP bridge (internal/worker). Exec and HTTP evaluators are constructed
// lazily enough to be safe here — no subprocess is started and no request
// is sent until the first evaluation. A bridge reports its measurement
// failures to logf: log.Printf, a daemon's own logger, or nil for silence.
// Builtin evaluators have no failure log and ignore it.
func FromSpec(sp *spec.Spec, logf func(format string, args ...any)) (Problem, error) {
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
		ex, err := worker.NewExecEvaluator(binding.Target, space, len(sp.Objectives))
		if err != nil {
			return Problem{}, fmt.Errorf("spec %q: %w", sp.Name, err)
		}
		ex.SetLogf(logf)
		p.Eval = ex
	case "http":
		he := worker.NewHTTPEvaluator(binding.Target, space, len(sp.Objectives))
		he.SetLogf(logf)
		p.Eval = he
	default:
		return Problem{}, fmt.Errorf("spec %q: unknown binding kind %q", sp.Name, binding.Kind)
	}
	return p, nil
}

// FromSpecData parses raw spec JSON and materializes it, with bridge
// failures on the process-global logger — the catalog-free form for tools
// that run one problem.
func FromSpecData(data []byte) (Problem, error) {
	return fromSpecData(data, log.Printf)
}

// fromSpecData parses raw spec JSON and materializes it with bridge
// failures on logf. Bound to a daemon's bridge logger it is the runtime
// loader both daemons hand to POST /problems (server.Config.SpecLoader,
// worker.Server.SetSpecLoader).
func fromSpecData(data []byte, logf func(format string, args ...any)) (Problem, error) {
	sp, err := spec.Parse(data)
	if err != nil {
		return Problem{}, err
	}
	return FromSpec(sp, logf)
}

// LoadDir materializes every *.json spec in dir with bridge failures on
// logf and returns them as a catalog: sorted by name, the later file (by
// name) winning a name collision.
func LoadDir(dir string, logf func(format string, args ...any)) ([]Problem, error) {
	problems, err := fromDir(dir, logf)
	if err != nil {
		return nil, err
	}
	return byName(problems)
}

// fromDir materializes every *.json spec in dir, in file-name order.
func fromDir(dir string, logf func(format string, args ...any)) ([]Problem, error) {
	specs, err := spec.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make([]Problem, len(specs))
	for i, sp := range specs {
		if out[i], err = FromSpec(sp, logf); err != nil {
			return nil, err
		}
	}
	return out, nil
}
