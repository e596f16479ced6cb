// Package spec defines the declarative problem format that opens the
// problem layer: a versioned JSON document describing a design space
// (parameters mirroring the param.Parameter kinds, optional validity
// constraints), the objective names, and an evaluator binding that says
// how configurations are measured — a builtin Go model, a user subprocess
// speaking JSON-lines, or an HTTP endpoint.
//
// The paper's engine is a general multi-objective black-box optimizer; the
// SLAM problems it was demonstrated on are just one catalog. A spec file
// is how any other workload — compiler flags, DBMS knobs, a user binary —
// becomes a named problem both daemons can serve, loaded at startup
// (-problems <dir>) or registered at runtime (POST /problems). The format
// reference lives in docs/SCENARIOS.md.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/param"
)

// Version is the spec format version this package reads and writes.
const Version = 1

// Spec is one declarative problem definition.
type Spec struct {
	// Version must equal Version (1). A version the loader does not know
	// is an error, not a guess.
	Version int `json:"version"`
	// Name is the problem name both daemons register the spec under; it is
	// the contract that lets a coordinator and its workers agree on what an
	// evaluation request means.
	Name string `json:"name"`
	// Description is the human-readable summary surfaced by GET /problems.
	Description string `json:"description,omitempty"`
	// Parameters defines the design space, one entry per dimension.
	Parameters []ParamSpec `json:"parameters"`
	// Constraints, optional, restrict the space to feasible
	// configurations; a configuration is feasible when every constraint
	// holds.
	Constraints []Constraint `json:"constraints,omitempty"`
	// Objectives names the evaluator's outputs, in order; its length is
	// the objective count (all objectives are minimized).
	Objectives []string `json:"objectives"`
	// Evaluator binds the measurement function: "builtin:<name>",
	// "exec:<command>", or "http://..."/"https://..." (see ParseBinding).
	Evaluator string `json:"evaluator"`
}

// ParamSpec is one parameter definition. Kind selects which fields apply:
//
//   - "bool": no other fields; values are {0, 1}.
//   - "ordinal", "categorical": explicit Values, at least one.
//   - "grid": Points values evenly spaced over [Low, High].
//   - "log-grid": Points values geometrically spaced over [Low, High];
//     Low must be positive. Encoded as log10 for the forests.
//
// Priors, optional for every kind, carries one non-negative weight per
// value (for "bool", two: weight of 0, weight of 1; for grid kinds, Points
// entries in grid order): the relative probability the prior-guided sampler
// draws that level. They declare where the spec author expects good
// configurations; runs under the default uniform strategy ignore them
// entirely, so adding priors never perturbs existing results.
type ParamSpec struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	Values []float64 `json:"values,omitempty"`
	Low    float64   `json:"low,omitempty"`
	High   float64   `json:"high,omitempty"`
	Points int       `json:"points,omitempty"`
	Priors []float64 `json:"priors,omitempty"`
}

// Constraint is one validity clause: Then must hold whenever If holds (or
// unconditionally when If is empty). Both are comparisons of the form
// "operand OP operand" with OP one of <, <=, >, >=, ==, != and operands a
// parameter name or a numeric literal, e.g.
//
//	{"then": "wal-buffer-mb <= buffer-pool-mb"}
//	{"if": "unroll == 0", "then": "unroll-factor == 1"}
type Constraint struct {
	If   string `json:"if,omitempty"`
	Then string `json:"then"`
}

// Parse decodes, validates, and returns a spec. Unknown fields are
// rejected — a typoed field name must fail loudly, not silently relax a
// constraint.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: parsing: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing content after the spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses one spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadDir parses every *.json file in dir (sorted by name, so load order —
// and therefore later-wins duplicate resolution in a registry — is
// deterministic). A directory with no spec files is an error: a daemon
// pointed at the wrong path must not silently serve an empty catalog.
func LoadDir(dir string) ([]*Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("spec: no *.json spec files in %s", dir)
	}
	slices.Sort(paths)
	out := make([]*Spec, 0, len(paths))
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Marshal renders the spec as indented JSON with a trailing newline.
// Parsing the output yields an identical spec, and marshaling that spec
// reproduces the bytes — the round-trip stability the shipped catalogs are
// tested against.
func (s *Spec) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: marshaling: %w", err)
	}
	return append(b, '\n'), nil
}

// Validate checks the whole document: version, parameter definitions,
// constraint expressions (parsed and name-resolved), objectives, and the
// evaluator binding. It builds the space to do so, which catches every
// error the daemons would otherwise hit at registration time.
func (s *Spec) Validate() error {
	if _, err := s.Space(); err != nil {
		return err
	}
	if len(s.Objectives) == 0 {
		return fmt.Errorf("spec %q: no objectives", s.Name)
	}
	for i, o := range s.Objectives {
		if strings.TrimSpace(o) == "" {
			return fmt.Errorf("spec %q: objective %d has an empty name", s.Name, i)
		}
	}
	if _, err := ParseBinding(s.Evaluator); err != nil {
		return fmt.Errorf("spec %q: %w", s.Name, err)
	}
	return nil
}

// Space builds the declared design space, with the constraints compiled
// into its feasibility predicate.
func (s *Spec) Space() (*param.Space, error) {
	if s.Version != Version {
		return nil, fmt.Errorf("spec %q: version %d, this build reads version %d", s.Name, s.Version, Version)
	}
	if strings.TrimSpace(s.Name) == "" {
		return nil, fmt.Errorf("spec: empty problem name")
	}
	if len(s.Parameters) == 0 {
		return nil, fmt.Errorf("spec %q: no parameters", s.Name)
	}
	params := make([]param.Parameter, len(s.Parameters))
	for i, p := range s.Parameters {
		built, err := p.build()
		if err != nil {
			return nil, fmt.Errorf("spec %q: parameter %q: %w", s.Name, p.Name, err)
		}
		params[i] = built
	}
	space, err := param.NewSpace(params...)
	if err != nil {
		return nil, fmt.Errorf("spec %q: %w", s.Name, err)
	}
	if len(s.Constraints) > 0 {
		pred, err := CompileConstraints(s.Constraints, space)
		if err != nil {
			return nil, fmt.Errorf("spec %q: %w", s.Name, err)
		}
		space.SetConstraint(pred)
	}
	return space, nil
}

// build maps one ParamSpec onto a param.Parameter, validating the fields
// its kind requires (the hard-error counterpart of param.Grid/LogGrid's
// degenerate-input clamping).
func (p ParamSpec) build() (param.Parameter, error) {
	// A grid's levels are allocated when the spec is read, and POST
	// /problems reads specs off the network: the list kinds are bounded by
	// the request body, a grid needs its own bound.
	const maxGridPoints = 1 << 20
	if strings.TrimSpace(p.Name) == "" {
		return param.Parameter{}, fmt.Errorf("empty name")
	}
	listKind := func(kind param.Kind) (param.Parameter, error) {
		if p.Points != 0 || p.Low != 0 || p.High != 0 {
			return param.Parameter{}, fmt.Errorf("kind %q takes explicit values, not low/high/points", p.Kind)
		}
		if len(p.Values) == 0 {
			return param.Parameter{}, fmt.Errorf("kind %q needs at least one value", p.Kind)
		}
		return param.Parameter{Name: p.Name, Kind: kind, Values: append([]float64(nil), p.Values...)}, nil
	}
	gridKind := func(log bool) (param.Parameter, error) {
		if len(p.Values) != 0 {
			return param.Parameter{}, fmt.Errorf("kind %q takes low/high/points, not explicit values", p.Kind)
		}
		if p.Points < 1 || p.Points > maxGridPoints {
			return param.Parameter{}, fmt.Errorf("kind %q needs 1 ≤ points ≤ %d, got %d", p.Kind, maxGridPoints, p.Points)
		}
		if p.Points > 1 && p.Low >= p.High {
			return param.Parameter{}, fmt.Errorf("kind %q needs low < high, got [%g, %g]", p.Kind, p.Low, p.High)
		}
		if log && p.Low <= 0 {
			return param.Parameter{}, fmt.Errorf("kind %q needs a positive low bound, got %g", p.Kind, p.Low)
		}
		if log {
			return param.LogGrid(p.Name, p.Low, p.High, p.Points), nil
		}
		return param.Grid(p.Name, p.Low, p.High, p.Points), nil
	}
	var built param.Parameter
	var err error
	switch p.Kind {
	case "bool":
		if len(p.Values) != 0 || p.Points != 0 || p.Low != 0 || p.High != 0 {
			return param.Parameter{}, fmt.Errorf(`kind "bool" takes no values/low/high/points`)
		}
		built = param.Bool(p.Name)
	case "ordinal":
		built, err = listKind(param.Ordinal)
	case "categorical":
		built, err = listKind(param.Categorical)
	case "grid":
		built, err = gridKind(false)
	case "log-grid":
		built, err = gridKind(true)
	default:
		return param.Parameter{}, fmt.Errorf("unknown kind %q (want bool, ordinal, categorical, grid, or log-grid)", p.Kind)
	}
	if err != nil {
		return param.Parameter{}, err
	}
	if p.Priors != nil {
		// Weight-count and value checks happen in param.NewSpace, which
		// knows the expanded grid length for every kind.
		built.Priors = append([]float64(nil), p.Priors...)
	}
	return built, nil
}

// Binding is a parsed evaluator binding.
type Binding struct {
	// Kind is "builtin", "exec", or "http".
	Kind string
	// Target is the builtin evaluator name, the exec command line
	// (whitespace-split, no shell interpretation), or the full HTTP URL.
	Target string
}

// ParseBinding parses an evaluator binding string:
//
//	builtin:<name>    a Go evaluator model registered in the catalog
//	exec:<command>    a subprocess speaking JSON-lines on stdin/stdout
//	http://<url>      an HTTP endpoint accepting config batches (https too)
func ParseBinding(s string) (Binding, error) {
	switch {
	case strings.HasPrefix(s, "builtin:"):
		if t := s[len("builtin:"):]; t != "" {
			return Binding{Kind: "builtin", Target: t}, nil
		}
		return Binding{}, fmt.Errorf("spec: builtin binding with no evaluator name")
	case strings.HasPrefix(s, "exec:"):
		if t := strings.TrimSpace(s[len("exec:"):]); t != "" {
			return Binding{Kind: "exec", Target: t}, nil
		}
		return Binding{}, fmt.Errorf("spec: exec binding with no command")
	case strings.HasPrefix(s, "http://"), strings.HasPrefix(s, "https://"):
		return Binding{Kind: "http", Target: s}, nil
	case s == "":
		return Binding{}, fmt.Errorf("spec: no evaluator binding")
	default:
		return Binding{}, fmt.Errorf("spec: evaluator %q is not builtin:, exec:, or http(s)://", s)
	}
}
