package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/sched"
	"repro/internal/worker"
)

// decodeRunRequest parses a POST /runs body and applies the tenant-header
// fallback: a tenant set in the body wins; otherwise the X-Tenant header,
// then the X-API-Key header, identify the submitter. A request with no
// identity at all runs under the shared anonymous tenant (see
// RunRequest.tenant). Split out of the handler so the decoder — the daemon's
// most attacker-exposed parser — is directly fuzzable.
func decodeRunRequest(body io.Reader, hdr http.Header) (RunRequest, error) {
	var req RunRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return RunRequest{}, fmt.Errorf("parsing request: %w", err)
	}
	if req.Tenant == "" {
		if t := hdr.Get("X-Tenant"); t != "" {
			req.Tenant = t
		} else if k := hdr.Get("X-API-Key"); k != "" {
			req.Tenant = k
		}
	}
	return req, nil
}

// retryAfterSeconds renders the scheduler's backoff hint for the
// Retry-After header (integer seconds, minimum 1).
func (m *Manager) retryAfterSeconds() string {
	secs := int(m.retryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// probJSON is one GET /problems entry (and the POST /problems success
// body): identity plus enough per-parameter detail for a client to render
// the space without the problem's spec. Parameter details reuse the worker
// protocol's shape so a coordinator and its workers advertise problems
// identically.
type probJSON struct {
	Name        string             `json:"name"`
	Description string             `json:"description,omitempty"`
	SpaceSize   int64              `json:"space_size"`
	Parameters  []worker.ParamInfo `json:"parameters"`
	Constrained bool               `json:"constrained,omitempty"`
	Objectives  []string           `json:"objectives"`
}

func toProbJSON(p Problem) probJSON {
	return probJSON{
		Name:        p.Name,
		Description: p.Description,
		SpaceSize:   p.Space.Size(),
		Parameters:  worker.ParamInfos(p.Space),
		Constrained: p.Space.Constrained(),
		Objectives:  p.Objectives,
	}
}

// Handler returns the REST API for the manager.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /problems", func(w http.ResponseWriter, r *http.Request) {
		probs := m.Problems()
		// Non-nil even with no registered problems: strict clients expect
		// [], not null.
		out := make([]probJSON, 0, len(probs))
		for _, p := range probs {
			out = append(out, toProbJSON(p))
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("POST /problems", func(w http.ResponseWriter, r *http.Request) {
		if m.cfg.SpecLoader == nil {
			writeError(w, http.StatusNotImplemented,
				errors.New("this daemon was started without spec support"))
			return
		}
		// A spec is human-written JSON, kilobytes at most.
		r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
		data, err := io.ReadAll(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading spec: %w", err))
			return
		}
		p, err := m.cfg.SpecLoader(data)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Manager.Register trusts its caller, but a spec loader's output
		// crosses a network boundary and must be complete first.
		if err := p.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		m.Register(p)
		writeJSON(w, http.StatusCreated, toProbJSON(p))
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})

	// Liveness: the process is serving. Always 200 — a daemon mid-recovery
	// is alive, and restarting it on a failed liveness probe would loop.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"uptime_s": time.Since(m.started).Seconds(),
		})
	})

	// Readiness: 503 while resumed sessions are still replaying their
	// journals, so load balancers hold traffic until recovery completes.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if n := m.Stats().Recovering; n > 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"ready":      false,
				"recovering": n,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	})

	mux.HandleFunc("POST /runs", func(w http.ResponseWriter, r *http.Request) {
		// A RunRequest is a handful of scalars; cap the body so one client
		// cannot buffer gigabytes into the shared daemon.
		r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
		req, err := decodeRunRequest(r.Body, r.Header)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Start returns the created status directly: re-fetching it from
		// the store could miss if eviction raced the creation.
		st, err := m.Start(req)
		if err != nil {
			code := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrUnknownProblem):
				code = http.StatusNotFound
			case errors.Is(err, ErrShuttingDown):
				code = http.StatusServiceUnavailable
			case errors.Is(err, ErrStorage):
				code = http.StatusInternalServerError
			case errors.Is(err, sched.ErrQueueFull):
				// Backpressure: the tenant's admission queue is full. The
				// Retry-After hint tells well-behaved clients when to come
				// back; nothing was created or persisted.
				w.Header().Set("Retry-After", m.retryAfterSeconds())
				code = http.StatusTooManyRequests
			}
			writeError(w, code, err)
			return
		}
		w.Header().Set("Location", "/runs/"+st.ID)
		writeJSON(w, http.StatusCreated, st)
	})

	mux.HandleFunc("GET /runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Statuses())
	})

	mux.HandleFunc("GET /runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no such run"))
			return
		}
		writeJSON(w, http.StatusOK, s.status())
	})

	mux.HandleFunc("GET /runs/{id}/front", func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no such run"))
			return
		}
		s.mu.Lock()
		state, rec := s.state, s.record
		s.mu.Unlock()
		if rec == nil || rec.Front == nil {
			// Still running, or ended without ever reaching the engine.
			writeError(w, http.StatusConflict, fmt.Errorf("run is %s; no front available", state))
			return
		}
		writeJSON(w, http.StatusOK, rec.Front)
	})

	mux.HandleFunc("GET /runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		s, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no such run"))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		if flusher != nil {
			// Push the headers out now: the first event may be minutes
			// away (real SLAM bootstraps), and clients with response-header
			// timeouts would otherwise abort before seeing anything.
			flusher.Flush()
		}
		enc := json.NewEncoder(w)
		wake := s.subscribe()
		defer s.unsubscribe(wake)
		cursor := 0
		for {
			fresh, next, terminal := s.eventsSince(cursor)
			cursor = next
			for _, ev := range fresh {
				if enc.Encode(ev) != nil {
					return
				}
			}
			if flusher != nil && len(fresh) > 0 {
				flusher.Flush()
			}
			if terminal {
				return
			}
			select {
			case <-wake:
			case <-r.Context().Done():
				return
			}
		}
	})

	mux.HandleFunc("DELETE /runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		// Cancel returns the post-cancel status atomically: a second
		// lookup here could miss (eviction, concurrent delete) and the old
		// two-step cancel-then-get dereferenced that miss.
		st, ok := m.Cancel(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no such run"))
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})

	return mux
}

// writeJSON marshals before the status line goes out, so a value
// encoding/json refuses (a NaN in a catalog entry, say) answers a 500 with
// an error body instead of the intended status with none.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n')) // a failed write means the client is gone
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
