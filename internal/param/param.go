// Package param models the algorithmic design spaces explored by
// HyperMapper: finite Cartesian products of discrete parameters (ordinal
// levels, discretized reals, booleans, categorical choices).
//
// A Space assigns every configuration a unique index in [0, Size()), which
// lets the optimizer treat the whole space as an addressable pool without
// materializing it (the KFusion space has 1.8 million points), sample
// uniformly without replacement, and encode configurations as feature
// vectors for the regression forests.
package param

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Kind classifies a parameter for encoding and reporting purposes.
type Kind int

const (
	// Ordinal parameters have naturally ordered discrete levels
	// (volume resolution, iteration counts).
	Ordinal Kind = iota
	// Real parameters are continuous quantities discretized to a grid
	// (µ distance, ICP/RGB weight).
	Real
	// Boolean parameters are on/off flags encoded as 0/1.
	Boolean
	// Categorical parameters have unordered levels; the forest still
	// receives the level value but splits carry no order semantics.
	Categorical
)

// String returns the lowercase kind name.
func (k Kind) String() string {
	switch k {
	case Ordinal:
		return "ordinal"
	case Real:
		return "real"
	case Boolean:
		return "boolean"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Parameter is one dimension of a design space: a named, ordered list of
// admissible values.
type Parameter struct {
	Name   string
	Kind   Kind
	Values []float64
	// LogScale marks parameters whose values span orders of magnitude
	// (e.g. the ICP convergence threshold); the feature encoding uses
	// log10(value) so tree splits partition the scale sensibly.
	LogScale bool
	// Priors, when non-nil, carries one non-negative weight per value:
	// the relative probability a prior-guided sampler draws that level.
	// Weights need not sum to 1 (they are normalized per draw). Nil means
	// uniform. Uniform sampling (SampleIndices) ignores Priors entirely,
	// so declaring priors never perturbs a default-strategy run.
	Priors []float64
}

// Bool returns a Boolean parameter named name with values {0, 1}.
func Bool(name string) Parameter {
	return Parameter{Name: name, Kind: Boolean, Values: []float64{0, 1}}
}

// Levels returns an Ordinal parameter with the given explicit values.
func Levels(name string, values ...float64) Parameter {
	return Parameter{Name: name, Kind: Ordinal, Values: values}
}

// Grid returns a Real parameter with n values evenly spaced over [lo, hi]
// inclusive. Degenerate knot counts clamp rather than panic: n < 2 yields
// the single value lo (callers that need a hard error, like the spec
// loader, validate the count before constructing the grid).
func Grid(name string, lo, hi float64, n int) Parameter {
	if n < 2 {
		return Parameter{Name: name, Kind: Real, Values: []float64{lo}}
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return Parameter{Name: name, Kind: Real, Values: vs}
}

// LogGrid returns a Real, log-scaled parameter with n values geometrically
// spaced over [lo, hi] inclusive. lo and hi must be positive. Degenerate
// knot counts clamp exactly like Grid: n < 2 yields the single value lo
// (previously n ≤ 0 panicked on an empty slice).
func LogGrid(name string, lo, hi float64, n int) Parameter {
	if n < 2 {
		return Parameter{Name: name, Kind: Real, Values: []float64{lo}, LogScale: true}
	}
	vs := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range vs {
		vs[i] = v
		v *= ratio
	}
	vs[n-1] = hi // avoid accumulation error on the last knot
	return Parameter{Name: name, Kind: Real, Values: vs, LogScale: true}
}

// Config is one configuration: the selected value for each parameter of a
// Space, in Space order.
type Config []float64

// Clone returns a copy of c.
func (c Config) Clone() Config { return append(Config(nil), c...) }

// Predicate reports whether a configuration is feasible. Implementations
// must be pure and safe for concurrent use: the optimizer consults the
// predicate from sampling, validation, and pool-construction paths that
// run in parallel.
type Predicate func(Config) bool

// Space is a finite Cartesian-product design space, optionally restricted
// to the configurations a constraint Predicate accepts.
type Space struct {
	params []Parameter
	byName map[string]int
	size   int64

	// constraint, when non-nil, restricts the space to feasible
	// configurations: sampling never emits an infeasible one and Validate
	// rejects them. Size() still reports the unconstrained product — the
	// index space is unchanged, only which indices are admissible.
	constraint Predicate
}

// NewSpace builds a space from the given parameters. It returns an error if
// a parameter has no values, a non-finite value (a Grid whose range
// overflows computes NaN or ±Inf levels) or a duplicate name, or if the
// total size would overflow int64.
func NewSpace(params ...Parameter) (*Space, error) {
	s := &Space{
		params: append([]Parameter(nil), params...),
		byName: make(map[string]int, len(params)),
		size:   1,
	}
	for i, p := range s.params {
		if len(p.Values) == 0 {
			return nil, fmt.Errorf("param: %q has no values", p.Name)
		}
		if p.Name == "" {
			return nil, errors.New("param: parameter with empty name")
		}
		for _, v := range p.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("param: %q has a non-finite value %v", p.Name, v)
			}
		}
		if _, dup := s.byName[p.Name]; dup {
			return nil, fmt.Errorf("param: duplicate parameter %q", p.Name)
		}
		s.byName[p.Name] = i
		if p.Priors != nil {
			if len(p.Priors) != len(p.Values) {
				return nil, fmt.Errorf("param: %q has %d priors for %d values", p.Name, len(p.Priors), len(p.Values))
			}
			sum := 0.0
			for _, w := range p.Priors {
				if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
					return nil, fmt.Errorf("param: %q has an invalid prior weight %v", p.Name, w)
				}
				sum += w
			}
			if sum <= 0 {
				return nil, fmt.Errorf("param: %q has all-zero prior weights", p.Name)
			}
		}
		n := int64(len(p.Values))
		if s.size > math.MaxInt64/n {
			return nil, errors.New("param: space size overflows int64")
		}
		s.size *= n
	}
	return s, nil
}

// MustSpace is NewSpace that panics on error; for statically known spaces.
func MustSpace(params ...Parameter) *Space {
	s, err := NewSpace(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// SetConstraint installs a feasibility predicate. It must be called while
// the space is still being set up, before it is shared across goroutines;
// passing nil removes the constraint.
func (s *Space) SetConstraint(pred Predicate) { s.constraint = pred }

// Constrained reports whether the space carries a feasibility constraint.
func (s *Space) Constrained() bool { return s.constraint != nil }

// Feasible reports whether cfg satisfies the space's constraint; an
// unconstrained space accepts every configuration. It checks only the
// constraint — membership of the grid is Validate's job.
func (s *Space) Feasible(cfg Config) bool {
	return s.constraint == nil || s.constraint(cfg)
}

// FeasibleIndices returns every feasible configuration index in ascending
// order; without a constraint that is every index. It materializes the
// whole list — O(Size) time — so it is meant for spaces bounded by a pool
// cap, not for the full 10¹⁸-point products NewSpace admits.
func (s *Space) FeasibleIndices() []int64 {
	if s.constraint == nil {
		all := make([]int64, s.size)
		for i := range all {
			all[i] = int64(i)
		}
		return all
	}
	out := make([]int64, 0, s.size)
	cfg := make(Config, len(s.params))
	for idx := int64(0); idx < s.size; idx++ {
		s.AtIndexInto(idx, cfg)
		if s.constraint(cfg) {
			out = append(out, idx)
		}
	}
	return out
}

// Size returns the number of configurations in the space.
func (s *Space) Size() int64 { return s.size }

// Dim returns the number of parameters.
func (s *Space) Dim() int { return len(s.params) }

// Params returns the parameters in order. The slice must not be modified.
func (s *Space) Params() []Parameter { return s.params }

// Names returns the parameter names in order.
func (s *Space) Names() []string {
	names := make([]string, len(s.params))
	for i, p := range s.params {
		names[i] = p.Name
	}
	return names
}

// IndexOfName returns the position of the named parameter, or -1.
func (s *Space) IndexOfName(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// Get returns the value of the named parameter in cfg. It panics if the
// name is unknown — a programming error, not a data error.
func (s *Space) Get(cfg Config, name string) float64 {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("param: unknown parameter %q", name))
	}
	return cfg[i]
}

// With returns a copy of cfg with the named parameter set to the admissible
// value closest to v.
func (s *Space) With(cfg Config, name string, v float64) Config {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("param: unknown parameter %q", name))
	}
	out := cfg.Clone()
	out[i] = nearest(s.params[i].Values, v)
	return out
}

// nearest returns the element of values closest to v.
func nearest(values []float64, v float64) float64 {
	best := values[0]
	bestD := math.Abs(v - best)
	for _, x := range values[1:] {
		if d := math.Abs(v - x); d < bestD {
			best, bestD = x, d
		}
	}
	return best
}

// AtIndex returns the configuration with the given index using mixed-radix
// decoding (parameter 0 is the most significant digit).
func (s *Space) AtIndex(idx int64) Config {
	cfg := make(Config, len(s.params))
	s.AtIndexInto(idx, cfg)
	return cfg
}

// AtIndexInto decodes idx into dst, which must have length Dim(). It panics
// if idx is out of range.
func (s *Space) AtIndexInto(idx int64, dst Config) {
	if idx < 0 || idx >= s.size {
		panic(fmt.Sprintf("param: index %d out of range [0,%d)", idx, s.size))
	}
	for i := len(s.params) - 1; i >= 0; i-- {
		n := int64(len(s.params[i].Values))
		dst[i] = s.params[i].Values[idx%n]
		idx /= n
	}
}

// IndexOf returns the index of cfg. Every value must exactly match an
// admissible level of its parameter.
func (s *Space) IndexOf(cfg Config) (int64, error) {
	if len(cfg) != len(s.params) {
		return 0, fmt.Errorf("param: config has %d values, space has %d parameters", len(cfg), len(s.params))
	}
	var idx int64
	for i, p := range s.params {
		level := -1
		for j, v := range p.Values {
			if v == cfg[i] {
				level = j
				break
			}
		}
		if level < 0 {
			return 0, fmt.Errorf("param: value %v not admissible for %q", cfg[i], p.Name)
		}
		idx = idx*int64(len(p.Values)) + int64(level)
	}
	return idx, nil
}

// Validate reports whether cfg is a member of the space: every value an
// admissible level of its parameter, and — on a constrained space — the
// configuration feasible.
func (s *Space) Validate(cfg Config) error {
	if _, err := s.IndexOf(cfg); err != nil {
		return err
	}
	if !s.Feasible(cfg) {
		return fmt.Errorf("param: configuration %v violates the space constraint", cfg)
	}
	return nil
}

// SampleIndices draws n distinct feasible configuration indices uniformly
// at random. If n meets or exceeds the feasible count it returns every
// feasible index. The result is in random order. On a heavily constrained
// space it can return fewer than n indices — there may simply not be n
// feasible configurations.
func (s *Space) SampleIndices(rng *rand.Rand, n int) []int64 {
	if s.constraint != nil {
		return s.sampleConstrained(rng, n)
	}
	if int64(n) >= s.size {
		all := make([]int64, s.size)
		for i := range all {
			all[i] = int64(i)
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all
	}
	// Rejection sampling: n is always far below the pool size in practice
	// (thousands of samples from 10⁵-10⁶-point spaces).
	seen := NewIndexSet(n, s.size)
	out := make([]int64, 0, n)
	for len(out) < n {
		if idx := rng.Int63n(s.size); seen.Add(idx) {
			out = append(out, idx)
		}
	}
	return out
}

// sampleConstrained is SampleIndices for a constrained space: rejection
// sampling first (cheap while the feasible fraction is healthy), then a
// full feasible enumeration when the space is mostly infeasible — so the
// draw terminates and stays uniform no matter how tight the constraint is.
func (s *Space) sampleConstrained(rng *rand.Rand, n int) []int64 {
	cfg := make(Config, len(s.params))
	feasible := func(idx int64) bool {
		s.AtIndexInto(idx, cfg)
		return s.constraint(cfg)
	}
	if int64(n) >= s.size {
		all := s.FeasibleIndices()
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all
	}
	seen := NewIndexSet(n, s.size)
	out := make([]int64, 0, n)
	// ~64 draws per requested sample handles feasible fractions down to a
	// few percent; below that the enumeration fallback is cheaper than
	// spinning on rejections.
	for attempts := 64*n + 1024; attempts > 0 && len(out) < n; attempts-- {
		idx := rng.Int63n(s.size)
		if seen.Has(idx) || !feasible(idx) {
			continue
		}
		seen.Add(idx)
		out = append(out, idx)
	}
	if len(out) < n {
		// Sparse feasible set: enumerate every feasible index not already
		// drawn, shuffle, and top the sample up (possibly short of n when
		// fewer feasible configurations exist).
		rest := make([]int64, 0, n-len(out))
		for idx := int64(0); idx < s.size; idx++ {
			if !seen.Has(idx) && feasible(idx) {
				rest = append(rest, idx)
			}
		}
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		if need := n - len(out); len(rest) > need {
			rest = rest[:need]
		}
		out = append(out, rest...)
	}
	return out
}

// Encode writes the feature vector of cfg into dst (length Dim()): the raw
// value for linear parameters and log10(value) for log-scaled ones.
func (s *Space) Encode(cfg Config, dst []float64) {
	for i, p := range s.params {
		if p.LogScale {
			dst[i] = math.Log10(cfg[i])
		} else {
			dst[i] = cfg[i]
		}
	}
}

// EncodeNew returns the feature vector of cfg as a new slice.
func (s *Space) EncodeNew(cfg Config) []float64 {
	dst := make([]float64, s.Dim())
	s.Encode(cfg, dst)
	return dst
}

// FormatConfig renders cfg as "name=value name=value …" for logs and CSV.
func (s *Space) FormatConfig(cfg Config) string {
	var b strings.Builder
	for i, p := range s.params {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%g", p.Name, cfg[i])
	}
	return b.String()
}
