package worker

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/param"
)

// TestHelperObjective is not a test: it is the exec-bridge subprocess,
// re-invoked from this test binary (the standard self-exec pattern). Its
// behavior is selected by BRIDGE_HELPER_MODE.
func TestHelperObjective(t *testing.T) {
	mode := os.Getenv("BRIDGE_HELPER_MODE")
	if mode == "" {
		return // normal test run, not a subprocess
	}
	in := bufio.NewScanner(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	served := 0
	for in.Scan() {
		var req ExecRequest
		if err := json.Unmarshal(in.Bytes(), &req); err != nil {
			out.Encode(map[string]string{"error": err.Error()})
			continue
		}
		switch mode {
		case "sum":
			out.Encode(map[string][]float64{"objectives": {
				req.Config["a"] + req.Config["b"],
				req.Config["a"] * req.Config["b"],
			}})
		case "error":
			out.Encode(map[string]string{"error": "cannot measure this one"})
		case "short":
			out.Encode(map[string][]float64{"objectives": {1}})
		case "die-after-first":
			if served > 0 {
				os.Exit(1)
			}
			served++
			out.Encode(map[string][]float64{"objectives": {
				req.Config["a"] + req.Config["b"], 0,
			}})
		case "garbage":
			fmt.Println("this is not JSON")
		case "long-line":
			// A valid reply, padded past maxExecReply before its newline.
			fmt.Printf("{\"objectives\":[1,2]%s}\n", strings.Repeat(" ", 2*maxExecReply))
		case "null-belt":
			// A program that marks a configuration invalid the JSON way:
			// null where it has no number (the belt of nullBeltEval).
			objs := nullBeltEval(param.Config{req.Config["a"], req.Config["b"]})
			if math.IsNaN(objs[0]) {
				fmt.Printf("{\"objectives\":[null,%g]}\n", objs[1])
			} else {
				out.Encode(map[string][]float64{"objectives": objs})
			}
		}
	}
	os.Exit(0)
}

// bridgeSpace is the two-parameter space the helper subprocess computes
// over.
func bridgeSpace(t *testing.T) *param.Space {
	t.Helper()
	return param.MustSpace(
		param.Grid("a", 0, 4, 5),
		param.Grid("b", 0, 4, 5),
	)
}

// nullBeltEval is the objective function of the "null-belt" helper mode: a
// two-objective trade-off over (a, b) with a hidden belt, 3 < a+b <= 4, on
// which the first objective cannot be measured.
func nullBeltEval(cfg param.Config) []float64 {
	a, b := cfg[0], cfg[1]
	objs := []float64{a + 0.5*math.Sin(3*b) + 2, b + 0.5*math.Cos(2*a) + 2}
	if a+b > 3 && a+b <= 4 {
		objs[0] = math.NaN()
	}
	return objs
}

// helperEvaluator builds an ExecEvaluator that re-runs this test binary as
// the objective program in the given mode.
func helperEvaluator(t *testing.T, mode string, objectives int) *ExecEvaluator {
	t.Helper()
	return helperEvaluatorOver(t, mode, bridgeSpace(t), objectives)
}

func helperEvaluatorOver(t *testing.T, mode string, space *param.Space, objectives int) *ExecEvaluator {
	t.Helper()
	t.Setenv("BRIDGE_HELPER_MODE", mode)
	cmd := os.Args[0] + " -test.run=^TestHelperObjective$"
	e, err := NewExecEvaluator(cmd, space, objectives)
	if err != nil {
		t.Fatal(err)
	}
	e.logf = t.Logf
	t.Cleanup(func() { e.Close() })
	return e
}

func TestExecEvaluatorRoundTrip(t *testing.T) {
	e := helperEvaluator(t, "sum", 2)
	cfg := param.Config{3, 2}
	for i := 0; i < 3; i++ { // same subprocess across calls
		objs := e.Evaluate(cfg)
		if len(objs) != 2 || objs[0] != 5 || objs[1] != 6 {
			t.Fatalf("call %d: objectives = %v, want [5 6]", i, objs)
		}
	}
}

// TestExecEvaluatorNullObjectiveIsNaN: encoding/json decodes a null into a
// float64 as 0, so a program's "I have no number for this" used to arrive as
// a perfect measurement. It must arrive as NaN — an invalid configuration.
func TestExecEvaluatorNullObjectiveIsNaN(t *testing.T) {
	e := helperEvaluator(t, "null-belt", 2)
	objs := e.Evaluate(param.Config{2, 2}) // a+b = 4: on the belt
	if len(objs) != 2 || !math.IsNaN(objs[0]) || objs[1] != nullBeltEval(param.Config{2, 2})[1] {
		t.Fatalf("objectives = %v, want [NaN %v]", objs, nullBeltEval(param.Config{2, 2})[1])
	}
	if objs := e.Evaluate(param.Config{0, 1}); len(objs) != 2 || objs[0] != nullBeltEval(param.Config{0, 1})[0] {
		t.Fatalf("off the belt: objectives = %v, want %v", objs, nullBeltEval(param.Config{0, 1}))
	}
}

func TestExecEvaluatorApplicationError(t *testing.T) {
	e := helperEvaluator(t, "error", 2)
	if objs := e.Evaluate(param.Config{1, 1}); objs != nil {
		t.Fatalf("declined configuration returned %v, want nil", objs)
	}
}

func TestExecEvaluatorObjectiveCountMismatch(t *testing.T) {
	e := helperEvaluator(t, "short", 2)
	if objs := e.Evaluate(param.Config{1, 1}); objs != nil {
		t.Fatalf("short vector returned %v, want nil", objs)
	}
}

func TestExecEvaluatorRestartsDeadSubprocess(t *testing.T) {
	e := helperEvaluator(t, "die-after-first", 2)
	if objs := e.Evaluate(param.Config{1, 2}); objs == nil || objs[0] != 3 {
		t.Fatalf("first call = %v", objs)
	}
	// The subprocess exits on the second request; the bridge must restart
	// it and succeed within the same Evaluate call.
	if objs := e.Evaluate(param.Config{2, 2}); objs == nil || objs[0] != 4 {
		t.Fatalf("post-death call = %v, want a restarted answer", objs)
	}
}

func TestExecEvaluatorGarbageOutput(t *testing.T) {
	e := helperEvaluator(t, "garbage", 2)
	if objs := e.Evaluate(param.Config{1, 1}); objs != nil {
		t.Fatalf("garbage transcript returned %v, want nil", objs)
	}
}

func TestExecEvaluatorBadCommand(t *testing.T) {
	if _, err := NewExecEvaluator("   ", bridgeSpace(t), 1); err == nil {
		t.Fatal("accepted an empty command")
	}
	e, err := NewExecEvaluator("/definitely/not/a/binary", bridgeSpace(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	e.logf = t.Logf
	if objs := e.Evaluate(param.Config{0, 0}); objs != nil {
		t.Fatalf("unstartable command returned %v, want nil", objs)
	}
}

// TestBridgeSetLogf: failure chatter must go wherever SetLogf points —
// and nowhere at all for SetLogf(nil), the -validate/-quiet contract.
func TestBridgeSetLogf(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	capture := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	e, err := NewExecEvaluator("/definitely/not/a/binary", bridgeSpace(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	e.SetLogf(capture)
	if objs := e.Evaluate(param.Config{0, 0}); objs != nil {
		t.Fatalf("unstartable command returned %v", objs)
	}
	mu.Lock()
	captured := len(lines)
	mu.Unlock()
	if captured == 0 {
		t.Fatal("SetLogf sink saw no failure report")
	}

	// nil silences: the evaluation still fails, with no panic and no output.
	e.SetLogf(nil)
	if objs := e.Evaluate(param.Config{0, 0}); objs != nil {
		t.Fatalf("silenced bridge returned %v", objs)
	}

	h := NewHTTPEvaluator("http://127.0.0.1:1/eval", bridgeSpace(t), 2)
	h.SetLogf(capture)
	if objs := h.Evaluate(param.Config{0, 0}); objs != nil {
		t.Fatalf("unreachable endpoint returned %v", objs)
	}
	mu.Lock()
	grew := len(lines) > captured
	mu.Unlock()
	if !grew {
		t.Fatal("HTTP SetLogf sink saw no failure report")
	}
	h.SetLogf(nil)
	if objs := h.Evaluate(param.Config{0, 0}); objs != nil {
		t.Fatalf("silenced http bridge returned %v", objs)
	}
}

func TestHTTPEvaluator(t *testing.T) {
	var gotPath string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		var req HTTPRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Configs) != 1 {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		c := req.Configs[0]
		json.NewEncoder(w).Encode(map[string][][]float64{
			"objectives": [][]float64{{c["a"] - c["b"], c["a"] + c["b"]}},
		})
	}))
	defer srv.Close()

	e := NewHTTPEvaluator(srv.URL+"/eval", bridgeSpace(t), 2)
	e.logf = t.Logf
	objs := e.Evaluate(param.Config{3, 1})
	if len(objs) != 2 || objs[0] != 2 || objs[1] != 4 {
		t.Fatalf("objectives = %v, want [2 4]", objs)
	}
	if gotPath != "/eval" {
		t.Fatalf("posted to %q", gotPath)
	}
}

func TestHTTPEvaluatorFailures(t *testing.T) {
	cases := map[string]http.HandlerFunc{
		"non-200": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		},
		"wrong shape": func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(map[string][][]float64{"objectives": [][]float64{{1}}})
		},
		"not json": func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "hello")
		},
	}
	for name, h := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(h)
			defer srv.Close()
			e := NewHTTPEvaluator(srv.URL, bridgeSpace(t), 2)
			e.logf = t.Logf
			if objs := e.Evaluate(param.Config{0, 0}); objs != nil {
				t.Fatalf("objectives = %v, want nil", objs)
			}
		})
	}

	t.Run("unreachable", func(t *testing.T) {
		e := NewHTTPEvaluator("http://127.0.0.1:1/eval", bridgeSpace(t), 2)
		e.logf = t.Logf
		if objs := e.Evaluate(param.Config{0, 0}); objs != nil {
			t.Fatalf("objectives = %v, want nil", objs)
		}
	})
}

func TestWorkerSpecRegistration(t *testing.T) {
	s := NewServer(1)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	// Without a loader the endpoint is explicitly unimplemented.
	resp, err := http.Post(srv.URL+"/problems", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("POST /problems without loader = %d, want 501", resp.StatusCode)
	}

	s.SetSpecLoader(func(data []byte) (Problem, error) {
		var doc struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || doc.Name == "" {
			return Problem{}, fmt.Errorf("bad spec")
		}
		return Problem{Name: doc.Name, Space: testSpace(t), Eval: testEval(), Objectives: 2}, nil
	})

	resp, err = http.Post(srv.URL+"/problems", "application/json", strings.NewReader(`{"name":""}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/problems", "application/json", strings.NewReader(`{"name":"runtime-prob"}`))
	if err != nil {
		t.Fatal(err)
	}
	var info ProblemInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("good spec = %d, want 201", resp.StatusCode)
	}
	if info.Name != "runtime-prob" || len(info.Parameters) != 3 || info.Parameters[0].Kind != "real" {
		t.Fatalf("registration reply = %+v", info)
	}

	// The problem is immediately evaluable.
	body, _ := json.Marshal(EvaluateRequest{Problem: "runtime-prob", Configs: []param.Config{testSpace(t).AtIndex(7)}})
	resp, err = http.Post(srv.URL+"/evaluate", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var out EvaluateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Objectives) != 1 || len(out.Objectives[0]) != 2 {
		t.Fatalf("evaluate after registration = %+v", out)
	}
}
