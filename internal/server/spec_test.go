package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/param"
	"repro/internal/worker"
)

// TestHelperSpecObjective is not a test: it is the exec-bridge objective
// program for the acceptance test below, re-invoked from this test binary.
func TestHelperSpecObjective(t *testing.T) {
	if os.Getenv("SPEC_BRIDGE_HELPER") == "" {
		return
	}
	if path := os.Getenv("SPEC_BRIDGE_PIDS"); path != "" {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			os.Exit(2)
		}
		fmt.Fprintln(f, os.Getpid())
		f.Close()
	}
	in := bufio.NewScanner(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	for in.Scan() {
		var req catalog.ExecRequest
		if err := json.Unmarshal(in.Bytes(), &req); err != nil {
			out.Encode(map[string]string{"error": err.Error()})
			continue
		}
		x, y := req.Config["x"], req.Config["y"]
		out.Encode(map[string][]float64{"objectives": {
			(x-3)*(x-3) + (y-1)*(y-1),
			x + 0.8*y,
		}})
	}
	os.Exit(0)
}

// specDoc is a complete declarative problem: a constrained space bound to
// this test binary through the exec bridge.
func specDoc(t *testing.T) []byte {
	t.Helper()
	t.Setenv("SPEC_BRIDGE_HELPER", "1")
	return []byte(fmt.Sprintf(`{
  "version": 1,
  "name": "spec-e2e",
  "description": "acceptance problem for spec-defined exec evaluation",
  "parameters": [
    {"name": "x", "kind": "grid", "low": 0, "high": 5, "points": 26},
    {"name": "y", "kind": "grid", "low": 0, "high": 5, "points": 26}
  ],
  "constraints": [{"then": "y <= x"}],
  "objectives": ["distance", "cost"],
  "evaluator": "exec:%s -test.run=^TestHelperSpecObjective$"
}`, os.Args[0]))
}

// specLoader is the same adapter cmd/hypermapperd wires into its Config.
func specLoader(data []byte) (Problem, error) {
	p, err := catalog.FromSpecData(data)
	if err != nil {
		return Problem{}, err
	}
	return Problem{
		Name:        p.Name,
		Description: p.Description,
		Space:       p.Space,
		Eval:        p.Eval,
		Objectives:  p.Objectives,
	}, nil
}

func TestSpecProblemEndToEndByteIdentical(t *testing.T) {
	// The acceptance criterion of the declarative problem layer: a seeded
	// run over a spec-loaded problem with an exec-bridge evaluator must
	// produce a byte-identical front whether the spec was registered at
	// startup, registered at runtime via POST /problems, or evaluated
	// remotely across a worker fleet that had the spec POSTed to it.
	doc := specDoc(t)
	req := RunRequest{Problem: "spec-e2e", Seed: 77, RandomSamples: 20, MaxIterations: 2, MaxBatch: 10}

	// Startup registration (the -problems path).
	startupProb, err := specLoader(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, startupProb)
	front := getFrontJSON(t, ts, runToDone(t, ts, req))

	// Runtime registration over the API.
	_, ts2 := newTestServerConfig(t, Config{SpecLoader: specLoader})
	resp, err := http.Post(ts2.URL+"/problems", "application/json", strings.NewReader(string(doc)))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		Name        string `json:"name"`
		Constrained bool   `json:"constrained"`
		Parameters  []struct {
			Name   string    `json:"name"`
			Kind   string    `json:"kind"`
			Values []float64 `json:"values"`
		} `json:"parameters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /problems = %d", resp.StatusCode)
	}
	if created.Name != "spec-e2e" || !created.Constrained || len(created.Parameters) != 2 {
		t.Fatalf("registration reply = %+v", created)
	}
	if created.Parameters[0].Kind != "real" || len(created.Parameters[0].Values) != 26 {
		t.Fatalf("parameter detail = %+v", created.Parameters[0])
	}
	if front2 := getFrontJSON(t, ts2, runToDone(t, ts2, req)); front2 != front {
		t.Fatalf("runtime-registered front differs from startup-registered:\n%s\nvs\n%s", front2, front)
	}

	// Distributed: every worker gets the spec at runtime, the coordinator
	// fans evaluation out to them (its own evaluator is bypassed).
	urls := make([]string, 2)
	for i := range urls {
		ws := worker.NewServer(2)
		ws.SetSpecLoader(func(data []byte) (worker.Problem, error) {
			p, err := catalog.FromSpecData(data)
			if err != nil {
				return worker.Problem{}, err
			}
			return worker.Problem{Name: p.Name, Space: p.Space, Eval: p.Eval, Objectives: len(p.Objectives)}, nil
		})
		srv := httptest.NewServer(ws.Handler())
		t.Cleanup(srv.Close)
		resp, err := http.Post(srv.URL+"/problems", "application/json", strings.NewReader(string(doc)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("worker %d spec registration = %d", i, resp.StatusCode)
		}
		urls[i] = srv.URL
	}
	pool, err := worker.NewPool(urls, worker.Options{ChunkSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	coordProb, err := specLoader(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, ts3 := newTestServerConfig(t, Config{EvalPool: pool}, coordProb)
	if front3 := getFrontJSON(t, ts3, runToDone(t, ts3, req)); front3 != front {
		t.Fatalf("distributed front differs from local:\n%s\nvs\n%s", front3, front)
	}
}

func TestReregisteredSpecStopsItsProgram(t *testing.T) {
	// Re-registering an exec-bound spec replaces its evaluator; the old
	// one's program must stop then, not when the daemon exits. A session
	// that captured the old evaluator and restarted its program finds it
	// stopped again by the time it is released (the retired bridge stops
	// it after the evaluation), and Shutdown stops the current one.
	doc := specDoc(t)
	pids := filepath.Join(t.TempDir(), "pids")
	t.Setenv("SPEC_BRIDGE_PIDS", pids)
	mgr, ts := newTestServerConfig(t, Config{SpecLoader: specLoader})
	// measure evaluates one configuration with ev, starting its program if
	// none runs, and returns the pid of the n-th program started.
	measure := func(ev core.Evaluator, n int) int {
		t.Helper()
		if objs := ev.Evaluate(param.Config{3, 1}); len(objs) != 2 || objs[0] != 0 {
			t.Fatalf("objectives = %v", objs)
		}
		data, err := os.ReadFile(pids)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Fields(string(data))
		if len(lines) != n {
			t.Fatalf("%d programs started, want %d", len(lines), n)
		}
		pid, err := strconv.Atoi(lines[n-1])
		if err != nil {
			t.Fatal(err)
		}
		return pid
	}
	register := func() core.Evaluator {
		t.Helper()
		resp, err := http.Post(ts.URL+"/problems", "application/json", strings.NewReader(string(doc)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /problems = %d", resp.StatusCode)
		}
		return mgr.Problems()[0].Eval
	}
	running := func(pid int) bool {
		p, err := os.FindProcess(pid)
		return err == nil && p.Signal(syscall.Signal(0)) == nil
	}

	first := measure(register(), 1)
	s := mgr.newSession(runMeta{ID: "run-1", Problem: "spec-e2e"}, StateQueued)
	second := measure(register(), 2)
	if running(first) {
		t.Fatalf("the replaced spec's program (pid %d) still runs", first)
	}
	if !running(second) {
		t.Fatalf("the registered spec's program (pid %d) is not running", second)
	}

	restarted := measure(s.problem.Eval, 3)
	mgr.wg.Add(1) // release gives back the slot Start would have taken
	mgr.release(s, nil)
	if running(restarted) {
		t.Fatalf("the replaced program a session restarted (pid %d) still runs after its release", restarted)
	}
	if !running(second) {
		t.Fatalf("releasing a session stopped the registered spec's program (pid %d)", second)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if running(second) {
		t.Fatalf("the program (pid %d) still runs after Shutdown", second)
	}
}

// runToDone starts a run and waits for successful completion.
func runToDone(t *testing.T, ts *httptest.Server, req RunRequest) string {
	t.Helper()
	st := postRun(t, ts, req)
	done := waitTerminal(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("run %s finished %s: %s", st.ID, done.State, done.Error)
	}
	return st.ID
}

func TestSpecRegistrationWithoutLoaderIs501(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/problems", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("POST /problems without loader = %d, want 501", resp.StatusCode)
	}
}

func TestSpecRegistrationRejectsBadSpec(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{SpecLoader: specLoader})
	for name, doc := range map[string]string{
		"malformed json": `{`,
		"unknown field":  `{"version":1,"name":"x","bogus":true}`,
		"bad constraint": `{"version":1,"name":"x","parameters":[{"name":"a","kind":"bool"}],"constraints":[{"then":"zzz == 1"}],"objectives":["f"],"evaluator":"http://h/e"}`,
	} {
		resp, err := http.Post(ts.URL+"/problems", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", name, resp.StatusCode)
		}
	}
}

// A loader's output that catalog.Problem.Validate refuses — here one with
// no evaluator — answers 400 naming what is missing and is not registered.
func TestSpecRegistrationRefusesIncompleteProblem(t *testing.T) {
	loader := func([]byte) (Problem, error) {
		p := testProblem("partial", 0)
		p.Eval = nil
		return p, nil
	}
	m, ts := newTestServerConfig(t, Config{SpecLoader: loader})
	resp, err := http.Post(ts.URL+"/problems", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(e.Error, "no evaluator") {
		t.Fatalf("POST = %d, body error %q (%v); want 400 naming the missing evaluator", resp.StatusCode, e.Error, err)
	}
	if n := len(m.Problems()); n != 0 {
		t.Fatalf("%d problems registered after a refused POST", n)
	}
}

// A grid whose range overflows float64 computes NaN and ±Inf levels. It used
// to register — 201 with an empty body, encoding/json refusing the levels
// after the status line was out — and from then on GET /problems answered
// every client 200 with an empty body.
func TestSpecRegistrationRefusesOverflowingGrid(t *testing.T) {
	_, ts := newTestServerConfig(t, Config{SpecLoader: specLoader}, testProblem("toy", 0))
	doc := `{"version":1,"name":"hostile","parameters":[{"name":"x","kind":"grid","low":-1.7e308,"high":1.7e308,"points":3}],"objectives":["f"],"evaluator":"http://127.0.0.1:1/evaluate"}`
	resp, err := http.Post(ts.URL+"/problems", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(e.Error, "non-finite") {
		t.Fatalf("POST = %d, body error %q (%v); want 400 naming the non-finite level", resp.StatusCode, e.Error, err)
	}

	resp, err = http.Get(ts.URL + "/problems")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var probs []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&probs); err != nil {
		t.Fatalf("GET /problems after the refusal: %v", err)
	}
	if resp.StatusCode != http.StatusOK || len(probs) != 1 || probs[0].Name != "toy" {
		t.Fatalf("GET /problems = %d %+v, want the one problem registered at startup", resp.StatusCode, probs)
	}
}

// Whatever encoding/json still refuses must reach the client as an error it
// can read, not as the intended status with an empty body.
func TestWriteJSONEncodeFailureIsA500WithABody(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]float64{"level": math.NaN()})
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError ||
		err != nil || !strings.Contains(e.Error, "encoding response") {
		t.Fatalf("status %d, body %q (%v); want 500 with an error naming the encoding failure", rec.Code, rec.Body.String(), err)
	}
}

func TestProblemsEndpointParameterDetail(t *testing.T) {
	// The builtin problems advertise per-parameter detail too, with
	// non-null values arrays and no constraint flag.
	_, ts := newTestServer(t, testProblem("toy", 0))
	resp, err := http.Get(ts.URL + "/problems")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var probs []struct {
		Name        string `json:"name"`
		Constrained bool   `json:"constrained"`
		Parameters  []struct {
			Name     string    `json:"name"`
			Kind     string    `json:"kind"`
			Values   []float64 `json:"values"`
			LogScale bool      `json:"log_scale"`
		} `json:"parameters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&probs); err != nil {
		t.Fatal(err)
	}
	if len(probs) != 1 || len(probs[0].Parameters) != 2 {
		t.Fatalf("problems = %+v", probs)
	}
	p := probs[0].Parameters[0]
	if p.Name != "a" || p.Kind != "real" || len(p.Values) != 40 || p.LogScale {
		t.Fatalf("parameter detail = %+v", p)
	}
	if probs[0].Constrained {
		t.Fatal("unconstrained problem advertised a constraint")
	}
}
