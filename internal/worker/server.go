package worker

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/param"
)

// Problem is one evaluator a worker serves: the design space it validates
// requests against plus the measurement function. The Evaluator must be
// safe for concurrent use — one worker serves overlapping batches from any
// number of coordinator daemons.
type Problem struct {
	Name  string
	Space *param.Space
	Eval  core.Evaluator
	// Objectives is the length of the vectors Eval returns, advertised in
	// GET /problems so clients can sanity-check a fleet's configuration.
	Objectives int
}

// maxEvaluateBody caps the POST /evaluate request body. A batch of a few
// thousand configurations over a dozen parameters is well under a
// megabyte; the cap only exists so a misbehaving client cannot buffer
// gigabytes into the worker.
const maxEvaluateBody = 32 << 20

// Server hosts registered evaluators behind the worker HTTP protocol
// (docs/WORKER_PROTOCOL.md): POST /evaluate measures a batch, GET /healthz
// reports liveness and counters, GET /problems lists what this worker can
// evaluate.
type Server struct {
	mu       sync.Mutex
	problems map[string]Problem

	// specLoader, when set, materializes a problem from raw spec JSON and
	// enables POST /problems. The daemon wires this to the catalog's spec
	// loader; the seam keeps this package free of a catalog dependency.
	specLoader func(data []byte) (Problem, error)

	evalWorkers int
	started     time.Time
	evals       atomic.Int64
	inflight    atomic.Int64

	// shedLimit caps concurrent POST /evaluate requests (SetShedLimit);
	// past it the worker answers 503 + Retry-After instead of queueing.
	// 0 never sheds. shed counts shed requests; reqs the concurrent ones.
	shedLimit atomic.Int64
	shed      atomic.Int64
	reqs      atomic.Int64
	// draining flips GET /readyz to 503 (SetDraining) so load balancers
	// stop routing here ahead of shutdown; /evaluate keeps serving.
	draining atomic.Bool
}

// NewServer returns a worker with no problems registered. evalWorkers
// bounds the concurrent evaluator calls per request batch; ≤ 0 selects
// GOMAXPROCS.
func NewServer(evalWorkers int) *Server {
	if evalWorkers <= 0 {
		evalWorkers = par.MaxWorkers()
	}
	return &Server{
		problems:    make(map[string]Problem),
		evalWorkers: evalWorkers,
		started:     time.Now(),
	}
}

// SetShedLimit bounds concurrent POST /evaluate requests: past the limit
// the worker sheds load, answering 503 with a Retry-After header, which
// the pool client honors as backpressure (wait and re-dispatch) rather
// than failure. 0 — the default — never sheds. Shedding is how a worker
// stays responsive (health probes, problem registration) when a burst of
// coordinators outpaces its evaluation capacity.
func (s *Server) SetShedLimit(n int) { s.shedLimit.Store(int64(n)) }

// SetDraining flips the GET /readyz readiness signal: a draining worker
// answers 503 there so load balancers stop routing new coordinators to
// it, while /evaluate and /healthz keep serving — in-flight batches
// finish, and circuit-breaker health probes still see a live process.
// The worker daemon sets this on SIGTERM, before its drain grace period.
func (s *Server) SetDraining(d bool) { s.draining.Store(d) }

// SetSpecLoader enables POST /problems: fn turns a raw problem-spec
// document into a registrable Problem. With no loader the endpoint answers
// 501 Not Implemented.
func (s *Server) SetSpecLoader(fn func(data []byte) (Problem, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.specLoader = fn
}

// Register adds or replaces a problem by name. Replacing stops the old
// evaluator's program, if it runs one (the exec bridge, an io.Closer).
func (s *Server) Register(p Problem) error {
	if p.Name == "" {
		return errors.New("worker: problem with empty name")
	}
	if p.Space == nil || p.Eval == nil {
		return fmt.Errorf("worker: problem %q needs a space and an evaluator", p.Name)
	}
	s.mu.Lock()
	old := s.problems[p.Name]
	s.problems[p.Name] = p
	s.mu.Unlock()
	if c, ok := old.Eval.(io.Closer); ok {
		_ = c.Close() // the exec bridge's Close always returns nil
	}
	return nil
}

// Problems lists the registered problems sorted by name.
func (s *Server) Problems() []Problem {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Problem, 0, len(s.problems))
	for _, p := range s.problems {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b Problem) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Handler returns the worker HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		probs := s.Problems()
		names := make([]string, len(probs))
		for i, p := range probs {
			names[i] = p.Name
		}
		writeJSON(w, http.StatusOK, Health{
			Status:      "ok",
			Problems:    names,
			Evaluations: s.evals.Load(),
			InFlight:    s.inflight.Load(),
			Shed:        s.shed.Load(),
			Draining:    s.draining.Load(),
			UptimeS:     time.Since(s.started).Seconds(),
		})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false, "draining": true})
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
	})

	mux.HandleFunc("GET /problems", func(w http.ResponseWriter, r *http.Request) {
		probs := s.Problems()
		out := make([]ProblemInfo, 0, len(probs))
		for _, p := range probs {
			out = append(out, problemInfo(p))
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("POST /problems", s.handleRegisterSpec)

	mux.HandleFunc("POST /evaluate", s.handleEvaluate)

	return mux
}

func problemInfo(p Problem) ProblemInfo {
	return ProblemInfo{
		Name:        p.Name,
		SpaceSize:   p.Space.Size(),
		Parameters:  ParamInfos(p.Space),
		Constrained: p.Space.Constrained(),
		Objectives:  p.Objectives,
	}
}

// maxSpecBody caps a POST /problems body; a spec is human-written JSON,
// kilobytes at most.
const maxSpecBody = 1 << 20

// handleRegisterSpec registers a spec-defined problem at runtime: the body
// is the spec document, the materialized problem replaces any existing
// problem of the same name, and the reply mirrors a GET /problems entry.
func (s *Server) handleRegisterSpec(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	loader := s.specLoader
	s.mu.Unlock()
	if loader == nil {
		writeError(w, http.StatusNotImplemented,
			errors.New("this worker was started without spec support"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxSpecBody)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading spec: %w", err))
		return
	}
	p, err := loader(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.Register(p); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, problemInfo(p))
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	// Load shedding first, before any body is read: a saturated worker's
	// cheapest move is refusing early. The check-then-add pair is racy by
	// design — admitting one or two extra requests under contention is
	// harmless; the limit is a pressure valve, not an exact quota.
	if lim := s.shedLimit.Load(); lim > 0 && s.reqs.Load() >= lim {
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("worker saturated (%d evaluate requests in flight); retry shortly", lim))
		return
	}
	s.reqs.Add(1)
	defer s.reqs.Add(-1)
	r.Body = http.MaxBytesReader(w, r.Body, maxEvaluateBody)
	var req EvaluateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("parsing request: %w", err))
		return
	}
	s.mu.Lock()
	p, ok := s.problems[req.Problem]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown problem %q", req.Problem))
		return
	}
	if len(req.Configs) == 0 {
		writeJSON(w, http.StatusOK, EvaluateResponse{Objectives: [][]float64{}})
		return
	}
	for i, cfg := range req.Configs {
		if err := p.Space.Validate(cfg); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("config %d: %w", i, err))
			return
		}
	}

	// Measure the batch, bounded to the worker's evaluation parallelism.
	// The request context covers the whole batch: when the coordinator
	// cancels (run cancelled, or this was the losing leg of a hedged pair)
	// no further evaluations start and the response is abandoned.
	ctx := r.Context()
	out := make([][]float64, len(req.Configs))
	s.inflight.Add(int64(len(req.Configs)))
	par.ForWorkers(len(req.Configs), s.evalWorkers, func(i int) {
		defer s.inflight.Add(-1)
		if ctx.Err() != nil {
			return
		}
		out[i] = p.Eval.Evaluate(req.Configs[i])
		s.evals.Add(1)
	})
	if ctx.Err() != nil {
		return // client is gone; nothing to write to
	}
	body, err := encodeObjectives(out)
	writeEncoded(w, http.StatusOK, body, err)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	writeEncoded(w, code, body, err)
}

// writeEncoded sends a body that was marshalled before the status line
// goes out, so a value encoding/json refuses (err: a NaN among a
// parameter's levels, say) answers a 500 with an error body instead of a
// 200 with none.
func writeEncoded(w http.ResponseWriter, code int, body []byte, err error) {
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n')) // a failed write means the client is gone
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}
