package worker

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
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
)

// maxBridgeReply is the bridges' bound on one configuration's reply, the
// exec reply line or the HTTP body: 64 KiB.
const maxBridgeReply = 64 << 10

// TestHelperObjective is not a test: it is the exec-bridge subprocess,
// re-invoked from this test binary (the standard self-exec pattern). Its
// behavior is selected by BRIDGE_HELPER_MODE.
func TestHelperObjective(t *testing.T) {
	mode := os.Getenv("BRIDGE_HELPER_MODE")
	if mode == "" {
		return // normal test run, not a subprocess
	}
	if path := os.Getenv("BRIDGE_HELPER_PIDS"); path != "" {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			os.Exit(2)
		}
		fmt.Fprintln(f, os.Getpid())
		f.Close()
	}
	in := bufio.NewScanner(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	served := 0
	for in.Scan() {
		var req catalog.ExecRequest
		if err := json.Unmarshal(in.Bytes(), &req); err != nil {
			out.Encode(map[string]string{"error": err.Error()})
			continue
		}
		switch mode {
		case "slow-sum":
			time.Sleep(100 * time.Millisecond)
			fallthrough
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
			// A valid reply, padded past maxBridgeReply before its newline.
			fmt.Printf("{\"objectives\":[1,2]%s}\n", strings.Repeat(" ", 2*maxBridgeReply))
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

// helperEvaluator builds a catalog.ExecEvaluator that re-runs this test
// binary as the objective program in the given mode.
func helperEvaluator(t *testing.T, mode string, objectives int) *catalog.ExecEvaluator {
	t.Helper()
	return helperEvaluatorOver(t, mode, bridgeSpace(t), objectives)
}

func helperEvaluatorOver(t *testing.T, mode string, space *param.Space, objectives int) *catalog.ExecEvaluator {
	t.Helper()
	t.Setenv("BRIDGE_HELPER_MODE", mode)
	cmd := os.Args[0] + " -test.run=^TestHelperObjective$"
	e, err := catalog.NewExecEvaluator(cmd, space, objectives)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := catalog.NewExecEvaluator("   ", bridgeSpace(t), 1); err == nil {
		t.Fatal("accepted an empty command")
	}
	e, err := catalog.NewExecEvaluator("/definitely/not/a/binary", bridgeSpace(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if objs := e.Evaluate(param.Config{0, 0}); objs != nil {
		t.Fatalf("unstartable command returned %v, want nil", objs)
	}
}

func TestHTTPEvaluator(t *testing.T) {
	var gotPath string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		var req catalog.HTTPRequest
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

	e := catalog.NewHTTPEvaluator(srv.URL+"/eval", bridgeSpace(t), 2)
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
			e := catalog.NewHTTPEvaluator(srv.URL, bridgeSpace(t), 2)
			if objs := e.Evaluate(param.Config{0, 0}); objs != nil {
				t.Fatalf("objectives = %v, want nil", objs)
			}
		})
	}

	t.Run("unreachable", func(t *testing.T) {
		e := catalog.NewHTTPEvaluator("http://127.0.0.1:1/eval", bridgeSpace(t), 2)
		if objs := e.Evaluate(param.Config{0, 0}); objs != nil {
			t.Fatalf("objectives = %v, want nil", objs)
		}
	})
}

// logLines runs f with the process logger, where the bridges report their
// failures, captured, and returns the lines f logged.
func logLines(f func()) []string {
	var buf bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&buf)
	f()
	return strings.FieldsFunc(buf.String(), func(r rune) bool { return r == '\n' })
}

// An HTTP-bridged endpoint whose reply passes maxBridgeReply, by one byte or
// by a stream that goes on, leaves the configuration unmeasured, with one
// log line; a reply of exactly maxBridgeReply bytes is read.
func TestHTTPEvaluatorBoundsReply(t *testing.T) {
	const reply = `{"objectives":[[1,2]]}`
	for name, size := range map[string]int{"one byte over": maxBridgeReply + 1, "streaming": 33 << 20} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(padded(reply, size))
			defer srv.Close()
			e := catalog.NewHTTPEvaluator(srv.URL, bridgeSpace(t), 2)
			var objs []float64
			logged := logLines(func() { objs = e.Evaluate(param.Config{1, 2}) })
			if objs != nil {
				t.Fatalf("objectives = %v, want nil for an over-long reply", objs)
			}
			if len(logged) != 1 {
				t.Fatalf("log lines = %q, want exactly one", logged)
			}
		})
	}
	srv := httptest.NewServer(padded(reply, maxBridgeReply))
	defer srv.Close()
	if objs := catalog.NewHTTPEvaluator(srv.URL, bridgeSpace(t), 2).Evaluate(param.Config{1, 2}); len(objs) != 2 || objs[0] != 1 || objs[1] != 2 {
		t.Fatalf("objectives = %v, want [1 2] from a reply of exactly the bound", objs)
	}
}

// An exec-bridged program whose reply line passes maxBridgeReply leaves the
// configuration unmeasured, with one log line (after the one restart every
// transport failure gets).
func TestExecEvaluatorBoundsReplyLine(t *testing.T) {
	e := helperEvaluator(t, "long-line", 2)
	var objs []float64
	logged := logLines(func() { objs = e.Evaluate(param.Config{1, 2}) })
	if objs != nil {
		t.Fatalf("objectives = %v, want nil for an over-long reply line", objs)
	}
	if len(logged) != 1 {
		t.Fatalf("log lines = %q, want exactly one", logged)
	}
}

// TestNullOverExecBridgeIsInvalidUnderDefaultStrategy is the ingest contract
// seen from a user program: under the default strategy, a program that
// answers null on a hidden belt yields the run an in-process evaluator
// returning NaN yields — the belt in Result.Invalid, and no fabricated 0 in
// Samples, on the front or in the forests' training targets.
func TestNullOverExecBridgeIsInvalidUnderDefaultStrategy(t *testing.T) {
	space := param.MustSpace(param.Grid("a", 0, 4, 17), param.Grid("b", 0, 4, 17))
	opts := core.Options{Objectives: 2, RandomSamples: 50, MaxIterations: 3, MaxBatch: 15, Seed: 5}
	local, err := core.Run(space, core.EvaluatorFunc(nullBeltEval), opts)
	if err != nil {
		t.Fatal(err)
	}
	bridged, err := core.Run(space, helperEvaluatorOver(t, "null-belt", space, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(bridged.Invalid) == 0 || len(bridged.Front) == 0 {
		t.Fatalf("the belt left %d invalid samples and a front of %d — the test lost its teeth", len(bridged.Invalid), len(bridged.Front))
	}
	if l, b := invalidFingerprint(local), invalidFingerprint(bridged); l != b {
		t.Fatalf("Invalid diverged over the exec bridge:\nlocal:\n%sbridged:\n%s", l, b)
	}
	if fingerprint(local) != fingerprint(bridged) {
		t.Fatal("Samples or Front diverged over the exec bridge")
	}
	for _, s := range bridged.Samples {
		if !(s.Objs[0] >= 2-0.5) { // the objective's true minimum; also false for NaN
			t.Fatalf("index %d entered Samples with first objective %v", s.Index, s.Objs[0])
		}
	}
	forests, err := bridged.Forests()
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, space.Dim())
	for idx := int64(0); idx < space.Size(); idx++ {
		space.Encode(space.AtIndex(idx), row)
		if v := forests[0].Predict(row); !(v >= 2-0.5) {
			t.Fatalf("first-objective forest predicts %v at index %d: it was trained on a target no measurement produced", v, idx)
		}
	}
}

// The lifetime of an exec bridge's program across the two batch loops that
// hold it: the worker's /evaluate and the coordinator's core.LocalBackend.

// TestReregistrationStopsProgramOfBatchInFlight: a batch that captured an
// exec-bound problem keeps measuring across a re-registration of that
// problem, restarting the replaced program Register stopped once and
// holding it for the rest of the batch, though the worker measures one
// configuration at a time; the program must be stopped again by the time
// the batch is answered.
func TestReregistrationStopsProgramOfBatchInFlight(t *testing.T) {
	pids := filepath.Join(t.TempDir(), "pids")
	t.Setenv("BRIDGE_HELPER_PIDS", pids)
	problem := func() Problem {
		return Problem{Name: "bridged", Space: bridgeSpace(t), Eval: helperEvaluator(t, "slow-sum", 2), Objectives: 2}
	}
	s := NewServer(1)
	if err := s.Register(problem()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	configs := sixConfigs()
	body, _ := json.Marshal(EvaluateRequest{Problem: "bridged", Configs: configs})
	replied := make(chan [][]float64, 1)
	go func() {
		var out EvaluateResponse
		if resp, err := http.Post(srv.URL+"/evaluate", "application/json", strings.NewReader(string(body))); err == nil {
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
		}
		replied <- out.Objectives
	}()
	waitProgram(t, pids)
	if err := s.Register(problem()); err != nil {
		t.Fatal(err)
	}
	checkRetiredBatch(t, pids, configs, <-replied)
}

// TestRetiredBridgeHeldForLocalBatch is the coordinator's side of the same
// lifetime: a session's in-process batch, evaluated one configuration at a
// time (core.LocalBackend with Workers 1), that outlives its bridge's
// retirement restarts the program once and stops it when the batch ends.
func TestRetiredBridgeHeldForLocalBatch(t *testing.T) {
	pids := filepath.Join(t.TempDir(), "pids")
	t.Setenv("BRIDGE_HELPER_PIDS", pids)
	ev := helperEvaluator(t, "slow-sum", 2)
	configs := sixConfigs()
	replied := make(chan [][]float64, 1)
	go func() {
		out, _ := (&core.LocalBackend{Eval: ev, Workers: 1}).EvaluateBatch(context.Background(), configs)
		replied <- out
	}()
	waitProgram(t, pids)
	ev.Close()
	checkRetiredBatch(t, pids, configs, <-replied)
}

// sixConfigs is the batch the retirement tests measure: at the helper's
// 100 ms a configuration it is still running when the bridge retires.
func sixConfigs() []param.Config {
	configs := make([]param.Config, 6)
	for i := range configs {
		configs[i] = param.Config{float64(i % 5), 1}
	}
	return configs
}

// waitProgram waits until the helper program has recorded its first pid.
func waitProgram(t *testing.T, pids string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if data, _ := os.ReadFile(pids); len(data) > 0 {
			return // the batch is measuring
		}
		if time.Now().After(deadline) {
			t.Fatal("the batch never started the program")
		}
	}
}

// checkRetiredBatch checks a batch whose bridge retired while it measured:
// every configuration measured, exactly two programs started (the original
// and the one restart the batch held to its end), and both gone.
func checkRetiredBatch(t *testing.T, pids string, configs []param.Config, out [][]float64) {
	t.Helper()
	if len(out) != len(configs) {
		t.Fatalf("batch answered %d of %d configurations", len(out), len(configs))
	}
	for i, objs := range out {
		if len(objs) != 2 || objs[0] != configs[i][0]+configs[i][1] {
			t.Fatalf("configuration %d measured %v", i, objs)
		}
	}
	data, err := os.ReadFile(pids)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(data))
	if len(lines) != 2 {
		t.Errorf("%d programs started (pids %v), want 2: the original and one restart for the rest of the batch", len(lines), lines)
	}
	for _, line := range lines {
		pid, err := strconv.Atoi(line)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := os.FindProcess(pid); err == nil && p.Signal(syscall.Signal(0)) == nil {
			t.Errorf("the retired bridge's program (pid %d) still runs after the batch was answered", pid)
		}
	}
}
