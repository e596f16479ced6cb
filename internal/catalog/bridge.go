package catalog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nanjson"
	"repro/internal/param"
)

// This file implements the black-box evaluator bridges: core.Evaluator
// adapters that measure configurations by driving a user program instead
// of calling Go code. They live beside the spec loader that builds them
// (FromSpec): a spec-defined problem with an exec: or http: binding gets
// one of these as its evaluator, on the coordinator and on every worker
// alike, so bridged problems distribute exactly like builtin ones.
//
// Both bridges speak named configurations (BridgeConfig) rather than
// positional values: a user objective program keyed by parameter name
// cannot silently break when the spec reorders parameters. The wire
// contract is documented in docs/SCENARIOS.md.
//
// core.Evaluator has no error return, so a bridge failure (dead
// subprocess, unreachable endpoint, malformed reply) is reported by
// returning nil objectives: the engine counts the configuration as
// unmeasured and fails the batch with partial results retained, exactly
// like a remote worker outage. The failure itself goes to the process
// logger (log.Printf), which Daemon points at stderr, or at nothing under
// -quiet.

// BridgeConfig is one configuration on the bridge wire: parameter values
// keyed by parameter name, in no particular order.
type BridgeConfig map[string]float64

// ExecRequest is one JSON line written to an exec-bridge subprocess.
type ExecRequest struct {
	Config BridgeConfig `json:"config"`
}

// HTTPRequest is the POST body of the HTTP evaluator bridge: a batch of
// named configurations.
type HTTPRequest struct {
	Configs []BridgeConfig `json:"configs"`
}

// ExecEvaluator runs a user program as the objective function. The
// subprocess is started lazily on first use and kept alive across
// evaluations, speaking one JSON line per request on stdin and one per
// response on stdout (stderr passes through to the parent's stderr). A
// subprocess that dies or answers garbage is restarted once per
// evaluation before the configuration is reported unmeasured.
//
// Evaluations are serialized — the protocol is one request in flight at a
// time — so a parallel batch drains through the subprocess sequentially.
// For throughput, scale out: every worker daemon runs its own subprocess.
//
// The bridge alone decides whether its program runs: Close retires it, and
// from then on the program runs only while evaluations are queued on the
// bridge or a batch holds it (Hold) — ones from a batch or session that
// captured a replaced problem.
type ExecEvaluator struct {
	argv       []string
	names      []string
	objectives int

	// queued counts the evaluations waiting for or holding mu, plus the
	// batches holding the program.
	queued atomic.Int64

	mu      sync.Mutex
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	retired bool // set by Close
}

// NewExecEvaluator builds an exec bridge over the given command line for a
// space. The command is whitespace-split into argv — no shell
// interpretation — and not started until the first evaluation. objectives
// is the objective-vector length every response must carry.
func NewExecEvaluator(command string, space *param.Space, objectives int) (*ExecEvaluator, error) {
	argv := strings.Fields(command)
	if len(argv) == 0 {
		return nil, fmt.Errorf("catalog: exec bridge with an empty command")
	}
	if objectives < 1 {
		return nil, fmt.Errorf("catalog: exec bridge needs ≥ 1 objective, got %d", objectives)
	}
	return &ExecEvaluator{
		argv:       argv,
		names:      space.Names(),
		objectives: objectives,
	}, nil
}

// bridgeConfig names cfg's values for the wire.
func bridgeConfig(names []string, cfg param.Config) BridgeConfig {
	m := make(BridgeConfig, len(names))
	for i, n := range names {
		m[n] = cfg[i]
	}
	return m
}

// Evaluate implements core.Evaluator. It returns nil when the subprocess
// cannot produce a valid objective vector even after one restart. On a
// retired bridge the last queued evaluation stops the program it started,
// unless a batch still holds it.
func (e *ExecEvaluator) Evaluate(cfg param.Config) []float64 {
	e.queued.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	defer func() {
		if e.queued.Add(-1) == 0 && e.retired {
			e.stopLocked()
		}
	}()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		objs, appErr, err := e.roundTrip(cfg)
		if err == nil && appErr == nil {
			return objs
		}
		if appErr != nil {
			// The program answered the protocol but declined this
			// configuration; restarting would not change its mind.
			log.Printf("exec bridge %s: %v", e.argv[0], appErr)
			return nil
		}
		lastErr = err
		e.stopLocked() // dead or desynced subprocess: restart once
	}
	log.Printf("exec bridge %s: %v", e.argv[0], lastErr)
	return nil
}

// Hold keeps a retired bridge's program running until release is called.
// A batch's evaluator loop (core.LocalBackend, the worker's /evaluate)
// holds the bridge for the batch's whole length, so a batch measured one
// configuration at a time starts a retired program once, not once per
// configuration; release stops it when nothing else is queued.
func (e *ExecEvaluator) Hold() (release func()) {
	e.queued.Add(1)
	return func() {
		if e.queued.Add(-1) != 0 {
			return
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.retired && e.queued.Load() == 0 {
			e.stopLocked()
		}
	}
}

// roundTrip performs one request/response exchange, starting the
// subprocess if needed. appErr carries application-level rejections (an
// "error" reply, a wrong-length vector); err carries transport failures
// that warrant a restart.
func (e *ExecEvaluator) roundTrip(cfg param.Config) (objs []float64, appErr, err error) {
	if e.cmd == nil {
		if err := e.startLocked(); err != nil {
			return nil, nil, err
		}
	}
	line, err := json.Marshal(ExecRequest{Config: bridgeConfig(e.names, cfg)})
	if err != nil {
		return nil, nil, err
	}
	if _, err := e.in.Write(append(line, '\n')); err != nil {
		return nil, nil, fmt.Errorf("writing request: %w", err)
	}
	// e.out holds one reply line at most (startLocked): a longer one is
	// bufio.ErrBufferFull, a transport failure like any desynced reply.
	reply, err := e.out.ReadSlice('\n')
	if err != nil {
		return nil, nil, fmt.Errorf("reading response: %w", err)
	}
	// A null objective is read as NaN (nanjson.Vector), as /evaluate and the
	// HTTP bridge read it, and not as encoding/json's 0 — a fabricated
	// perfect measurement.
	var resp struct {
		Objectives nanjson.Vector `json:"objectives"`
		Error      string         `json:"error"`
	}
	if err := json.Unmarshal(reply, &resp); err != nil {
		return nil, nil, fmt.Errorf("decoding response %q: %w", bytes.TrimSpace(reply), err)
	}
	if resp.Error != "" {
		return nil, fmt.Errorf("program error: %s", resp.Error), nil
	}
	if len(resp.Objectives) != e.objectives {
		return nil, fmt.Errorf("program returned %d objectives, want %d", len(resp.Objectives), e.objectives), nil
	}
	return resp.Objectives, nil, nil
}

func (e *ExecEvaluator) startLocked() error {
	cmd := exec.Command(e.argv[0], e.argv[1:]...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", e.argv[0], err)
	}
	e.cmd, e.in, e.out = cmd, in, bufio.NewReaderSize(out, maxExecReply)
	return nil
}

func (e *ExecEvaluator) stopLocked() {
	if e.cmd == nil {
		return
	}
	e.in.Close()
	_ = e.cmd.Process.Kill()
	_ = e.cmd.Wait() // reap; the next evaluation starts fresh
	e.cmd, e.in, e.out = nil, nil, nil
}

// Close retires the bridge: it terminates the subprocess, if one is
// running, once an evaluation in flight returns. A later Evaluate still
// measures, starting a fresh subprocess that stops again when no other
// evaluation is queued on the bridge.
func (e *ExecEvaluator) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.retired = true
	e.stopLocked()
	return nil
}

// maxExecReply bounds one reply of either bridge — an exec program's reply
// line (an objective vector or an error message), an HTTP endpoint's body —
// so a program that never ends its reply cannot grow the daemon's memory.
const maxExecReply = bufio.MaxScanTokenSize

// httpBridgeTimeout is the per-request ceiling of the HTTP bridge — the
// same backstop role requestTimeout plays for worker requests: an
// endpoint that accepts the connection and never answers fails the
// configuration instead of hanging the run.
const httpBridgeTimeout = 15 * time.Minute

// HTTPEvaluator measures configurations by POSTing them to a user HTTP
// endpoint. Unlike the exec bridge it is safe for arbitrary concurrency —
// each evaluation is one independent request — so a parallel batch fans
// out as fast as the endpoint allows.
type HTTPEvaluator struct {
	url        string
	names      []string
	objectives int
	client     *http.Client
}

// NewHTTPEvaluator builds an HTTP bridge over the given endpoint URL for a
// space. objectives is the objective-vector length every response must
// carry.
func NewHTTPEvaluator(url string, space *param.Space, objectives int) *HTTPEvaluator {
	return &HTTPEvaluator{
		url:        url,
		names:      space.Names(),
		objectives: objectives,
		client:     &http.Client{Timeout: httpBridgeTimeout},
	}
}

// Evaluate implements core.Evaluator. It returns nil when the endpoint is
// unreachable, answers non-200, or replies with a malformed, over-long
// (maxExecReply) or wrong-length objective vector.
func (e *HTTPEvaluator) Evaluate(cfg param.Config) []float64 {
	objs, err := e.evaluate(cfg)
	if err != nil {
		log.Printf("http bridge %s: %v", e.url, err)
		return nil
	}
	return objs
}

func (e *HTTPEvaluator) evaluate(cfg param.Config) ([]float64, error) {
	body, err := json.Marshal(HTTPRequest{Configs: []BridgeConfig{bridgeConfig(e.names, cfg)}})
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Post(e.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("%d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	reply, err := io.ReadAll(io.LimitReader(resp.Body, maxExecReply+1))
	if err == nil && len(reply) > maxExecReply {
		err = fmt.Errorf("reply exceeds %d bytes", maxExecReply)
	}
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	// {"objectives":[[…]]}: a batch of one vector, null read as NaN.
	var out struct {
		Objectives []nanjson.Vector `json:"objectives"`
	}
	if err := json.Unmarshal(reply, &out); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if len(out.Objectives) != 1 {
		return nil, fmt.Errorf("endpoint returned %d objective vectors, want 1", len(out.Objectives))
	}
	if objs := out.Objectives[0]; len(objs) != e.objectives {
		return nil, fmt.Errorf("endpoint returned %d objectives, want %d", len(objs), e.objectives)
	}
	return out.Objectives[0], nil
}
