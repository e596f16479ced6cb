package worker

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/param"
)

// inBelt is the hidden validity rule of the NaN tests: configurations with
// a+b in (3, 4] fail at measurement time.
func inBelt(a, b float64) bool { return a+b > 3 && a+b <= 4 }

// nanBelt marks the belt the way core.Result.Invalid documents: NaN in an
// objective. Only the first objective is NaN, so the wire has to keep a
// null and a number apart inside one vector.
func nanBelt(inner core.Evaluator) core.Evaluator {
	return core.EvaluatorFunc(func(cfg param.Config) []float64 {
		objs := inner.Evaluate(cfg)
		if inBelt(cfg[0], cfg[1]) {
			objs[0] = math.NaN()
		}
		return objs
	})
}

func TestObjectivesWireNonFiniteAsNull(t *testing.T) {
	finite := [][]float64{{1.5, -0.25}, {0, 1e-300}, {math.MaxFloat64, 1.0 / 3}}
	body, err := encodeObjectives(finite)
	if err != nil {
		t.Fatal(err)
	}
	if plain, _ := json.Marshal(EvaluateResponse{Objectives: finite}); string(body) != string(plain) {
		t.Fatalf("all-finite body %s differs from the plain encoding %s", body, plain)
	}

	objs := [][]float64{{math.NaN(), 2.5}, {0, math.Inf(1)}, {math.Inf(-1), 1.0 / 3}, nil, {}}
	body, err = encodeObjectives(objs)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"objectives":[[null,2.5],[0,null],[null,0.3333333333333333],null,[]]}`; string(body) != want {
		t.Fatalf("body %s, want %s", body, want)
	}
	got, err := decodeObjectives(body)
	if err != nil {
		t.Fatal(err)
	}
	// Non-finite ⇒ invalid is the engine's contract, so ±Inf may come back
	// as the one marker it has; every finite value, 0 included, comes back
	// to the bit, and a missing vector stays missing.
	want := [][]float64{{math.NaN(), 2.5}, {0, math.NaN()}, {math.NaN(), 1.0 / 3}, nil, {}}
	if fmt.Sprint(got) != fmt.Sprint(want) || got[3] != nil || got[4] == nil {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	for i := range want {
		for j := range want[i] {
			if !math.IsNaN(want[i][j]) && math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("objective [%d][%d] = %v, want %v to the bit", i, j, got[i][j], want[i][j])
			}
		}
	}
	if _, err := decodeObjectives([]byte(`{"objectives":[[null,`)); err == nil {
		t.Fatal("truncated body decoded without error")
	}
}

// TestNaNObjectiveDoesNotFailTheChunk is the probe that found the bug: two
// workers, a breaker that trips at 2, a 2-configuration batch of which one
// is invalid. The NaN used to abort the worker's JSON encoding after the
// 200 header, so the coordinator read an empty body, retried the chunk on
// every worker, lost the valid neighbour, and tripped a healthy breaker.
func TestNaNObjectiveDoesNotFailTheChunk(t *testing.T) {
	eval := nanBelt(testEval())
	urls := []string{newWorkerFor(t, eval, nil).URL, newWorkerFor(t, eval, nil).URL}
	pool, err := NewPool(urls, Options{BreakerThreshold: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	space := testSpace(t)
	cfgs := make([]param.Config, 2) // one valid, one invalid
	for i := int64(0); i < space.Size() && (cfgs[0] == nil || cfgs[1] == nil); i++ {
		cfg := space.AtIndex(i)
		if inBelt(cfg[0], cfg[1]) {
			cfgs[1] = cfg
		} else {
			cfgs[0] = cfg
		}
	}
	out, err := pool.Backend("test", 2).EvaluateBatch(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("a NaN objective failed the batch: %v", err)
	}
	for i, cfg := range cfgs {
		if want := eval.Evaluate(cfg); fmt.Sprint(out[i]) != fmt.Sprint(want) {
			t.Fatalf("config %d: objectives %v, want %v", i, out[i], want)
		}
	}
	requireHealthyFleet(t, pool)
}

func requireHealthyFleet(t *testing.T, pool *Pool) {
	t.Helper()
	for _, st := range pool.Stats() {
		if st.Failures != 0 || st.Trips != 0 || st.Breaker != "closed" {
			t.Fatalf("worker %s was charged for an invalid configuration: %+v", st.URL, st)
		}
	}
}

// TestNaNRunMatchesLocalOverFleet runs a feasibility-aware strategy against
// an evaluator with a hidden infeasible belt, in-process and over a
// 3-worker pool: Samples, Invalid and Front must agree to the byte and no
// worker may be charged a failure — once with a Go evaluator, once with an
// HTTP-bridged program that marks the belt with null.
func TestNaNRunMatchesLocalOverFleet(t *testing.T) {
	space := testSpace(t)

	// program is the user's objective service behind the HTTP bridge:
	// testEval keyed by parameter name, null where the belt is.
	program := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req catalog.HTTPRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Configs) != 1 {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		c := req.Configs[0]
		objs := testEval().Evaluate(param.Config{c["a"], c["b"], c["c"]})
		first := any(objs[0])
		if inBelt(c["a"], c["b"]) {
			first = nil
		}
		json.NewEncoder(w).Encode(map[string]any{"objectives": [][]any{{first, objs[1]}}})
	}))
	defer program.Close()
	bridge := catalog.NewHTTPEvaluator(program.URL, space, 2)

	opts := runOpts(31)
	opts.Strategy = core.Strategy{Feasibility: true}
	for name, eval := range map[string]core.Evaluator{
		"go evaluator": nanBelt(testEval()),
		"http bridge":  bridge,
	} {
		t.Run(name, func(t *testing.T) {
			local, err := core.Run(space, eval, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(local.Invalid) == 0 || len(local.Front) == 0 {
				t.Fatalf("the belt left %d invalid samples and a front of %d — the test lost its teeth", len(local.Invalid), len(local.Front))
			}

			urls := make([]string, 3)
			for i := range urls {
				urls[i] = newWorkerFor(t, eval, nil).URL
			}
			pool, err := NewPool(urls, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			remoteOpts := opts
			remoteOpts.Backend = pool.Backend("test", 2)
			remote, err := core.Run(space, nil, remoteOpts)
			if err != nil {
				t.Fatal(err)
			}

			if l, r := invalidFingerprint(local), invalidFingerprint(remote); l != r {
				t.Fatalf("Invalid diverged over the fleet:\nlocal:\n%sremote:\n%s", l, r)
			}
			if fingerprint(local) != fingerprint(remote) {
				t.Fatal("Samples or Front diverged over the fleet")
			}
			requireHealthyFleet(t, pool)
		})
	}
}

// invalidFingerprint renders Result.Invalid the way fingerprint renders
// Samples; %v prints NaN as "NaN", so equal strings mean equal markers.
func invalidFingerprint(res *core.Result) string {
	var b strings.Builder
	for _, s := range res.Invalid {
		fmt.Fprintf(&b, "i %d %v %v %d\n", s.Index, s.Config, s.Objs, s.Iteration)
	}
	return b.String()
}

// TestWriteJSONEncodeFailureIsA500WithABody: whatever encoding/json still
// refuses must reach the client as an error it can read, not as an empty
// 200 it reports as "decoding response: EOF".
func TestWriteJSONEncodeFailureIsA500WithABody(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"level": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "encoding response") {
		t.Fatalf("body %q (%v), want an ErrorResponse naming the encoding failure", rec.Body.String(), err)
	}
}
