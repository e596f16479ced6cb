// Package worker implements the distributed evaluation backend: a
// lightweight worker daemon that serves registered evaluators over HTTP
// (Server, run by cmd/hypermapper-worker), and the client-side Pool whose
// per-problem core.Backend shards each evaluation batch across the worker
// fleet with bounded in-flight requests, per-chunk retries, and hedged
// re-dispatch of stragglers.
//
// This is the paper's Fig. 5 crowd made explicit: HyperMapper owed its
// throughput to ~70 machines evaluating configurations in parallel, and
// SLAMBench was designed to farm KFusion runs across heterogeneous
// devices. The wire protocol is specified in docs/WORKER_PROTOCOL.md;
// results always merge back in deterministic index order, so a seeded run
// over a worker fleet is byte-identical to the same run evaluated
// in-process.
package worker

import (
	"bytes"
	"encoding/json"
	"errors"

	"repro/internal/nanjson"
	"repro/internal/param"
)

// EvaluateRequest is the POST /evaluate body: one batch of configurations
// to measure against a named problem. Configurations are decoded parameter
// values in the problem's space order (not design-space indices), so a
// worker can validate them against its own copy of the space without
// trusting the client's indexing.
type EvaluateRequest struct {
	// Problem names the registered evaluator to run.
	Problem string `json:"problem"`
	// Configs holds one configuration per entry, each with exactly
	// Space.Dim() admissible values.
	Configs []param.Config `json:"configs"`
}

// EvaluateResponse is the POST /evaluate success body. Objectives[i] is
// the objective vector of Configs[i] — same length, same order; that
// positional contract is what lets the client merge shards back
// deterministically. A non-finite objective — NaN is the evaluator's
// "invalid configuration" marker, see core.Result.Invalid — has no JSON
// number form and travels as null (encodeObjectives / decodeObjectives).
type EvaluateResponse struct {
	Objectives [][]float64 `json:"objectives"`
}

// nullableResponse is EvaluateResponse's shape with room for the nulls.
type nullableResponse struct {
	Objectives []nanjson.Vector `json:"objectives"`
}

// encodeObjectives renders an EvaluateResponse body. All-finite vectors —
// every reply of most problems — take encoding/json's plain path; only
// when that refuses a NaN or ±Inf is the body rebuilt with null in its
// place (nanjson.Vector, the rule the journal and the cache spill share).
func encodeObjectives(objs [][]float64) ([]byte, error) {
	body, err := json.Marshal(EvaluateResponse{Objectives: objs})
	var nonFinite *json.UnsupportedValueError
	if !errors.As(err, &nonFinite) {
		return body, err
	}
	nullable := make([]nanjson.Vector, len(objs))
	for i, row := range objs {
		nullable[i] = row
	}
	return json.Marshal(nullableResponse{Objectives: nullable})
}

// decodeObjectives parses a {"objectives": [[…], …]} body, reading a null
// objective back as NaN: the receiving side of encodeObjectives. Only a
// body that spells null anywhere pays for nanjson.Vector's second look;
// every other body is decoded once, as plain float64s.
func decodeObjectives(body []byte) ([][]float64, error) {
	if bytes.Contains(body, []byte("null")) {
		var marked nullableResponse
		if err := json.Unmarshal(body, &marked); err != nil {
			return nil, err
		}
		if marked.Objectives == nil {
			return nil, nil // as the plain path reads an absent or null list
		}
		out := make([][]float64, len(marked.Objectives))
		for i, row := range marked.Objectives {
			out[i] = row
		}
		return out, nil
	}
	var out EvaluateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return out.Objectives, nil
}

// ErrorResponse is the body of every non-2xx worker reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Health is the GET /healthz body.
type Health struct {
	// Status is "ok" while the worker accepts evaluation requests.
	Status string `json:"status"`
	// Problems lists the registered problem names, sorted.
	Problems []string `json:"problems"`
	// Evaluations counts configurations measured since the worker started,
	// a cancelled batch's completed ones included.
	Evaluations int64 `json:"evaluations"`
	// InFlight counts the configurations of the batches being measured
	// right now, each batch whole until it is answered. (Same JSON name as
	// the coordinator's per-worker stats counter.)
	InFlight int64 `json:"in_flight"`
	// Shed counts evaluate requests answered 503 by load shedding (the
	// worker's shed limit; see Server.SetShedLimit).
	Shed int64 `json:"shed,omitempty"`
	// Draining reports a worker whose GET /readyz has been flipped
	// not-ready ahead of shutdown; evaluation keeps serving meanwhile.
	Draining bool `json:"draining,omitempty"`
	// UptimeS is seconds since the worker started.
	UptimeS float64 `json:"uptime_s"`
}

// ProblemInfo is one entry of the GET /problems listing, and the success
// body of POST /problems (runtime spec registration — the request body is
// the spec document itself, see docs/SCENARIOS.md).
type ProblemInfo struct {
	Name      string `json:"name"`
	SpaceSize int64  `json:"space_size"`
	// Parameters describes each dimension in space order.
	Parameters []ParamInfo `json:"parameters"`
	// Constrained reports whether the space carries a validity constraint,
	// i.e. whether some index combinations are infeasible and SpaceSize
	// overcounts the feasible set.
	Constrained bool `json:"constrained,omitempty"`
	Objectives  int  `json:"objectives"`
}

// ParamInfo is the advertised shape of one parameter: enough for a client
// to render the space or construct valid configurations without loading
// the problem's spec.
type ParamInfo struct {
	Name string `json:"name"`
	// Kind is the param.Kind name: "bool", "ordinal", "real", or
	// "categorical".
	Kind string `json:"kind"`
	// Values lists the admissible values in level order; never null.
	Values []float64 `json:"values"`
	// LogScale marks parameters the engine encodes as log10.
	LogScale bool `json:"log_scale,omitempty"`
	// Priors, when present, are the spec-declared per-value sampling
	// weights (aligned with Values) that prior-guided strategies draw from.
	Priors []float64 `json:"priors,omitempty"`
}

// ParamInfos describes a space's parameters for the wire.
func ParamInfos(space *param.Space) []ParamInfo {
	params := space.Params()
	out := make([]ParamInfo, len(params))
	for i, p := range params {
		out[i] = ParamInfo{
			Name:     p.Name,
			Kind:     p.Kind.String(),
			Values:   append([]float64{}, p.Values...),
			LogScale: p.LogScale,
		}
		if p.Priors != nil {
			out[i].Priors = append([]float64{}, p.Priors...)
		}
	}
	return out
}
