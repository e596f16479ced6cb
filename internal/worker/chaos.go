package worker

import (
	"errors"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosOptions configures the worker's fault-injection middleware — the
// harness behind cmd/hypermapper-worker's -chaos-* flags. Each
// probability is drawn independently per request from a seeded rng, so a
// chaos schedule is reproducible: the same seed and request count yield
// the same fault sequence.
type ChaosOptions struct {
	// Drop is the probability the request's connection is severed without
	// any response — what a worker process dying mid-request looks like
	// from the coordinator.
	Drop float64
	// Delay is the probability the request is stalled before handling;
	// DelayMax bounds the injected stall (uniform in (0, DelayMax],
	// default 100ms when Delay is set and DelayMax is not).
	Delay    float64
	DelayMax time.Duration
	// Err500 is the probability of answering 500 without evaluating.
	Err500 float64
	// Garbage is the probability of answering 200 with a body that is not
	// JSON — a corrupted or truncated reply.
	Garbage float64
	// CrashAfter, when positive, kills the process (exit code 3) as evaluate
	// request CrashAfter+1 arrives — a deterministic mid-run worker death.
	CrashAfter int64
	// Seed seeds the fault schedule.
	Seed int64
	// exit is the crash hook; nil selects os.Exit. Tests inject a
	// recorder here.
	exit func(code int)
}

// Enabled reports whether any fault is configured.
func (o ChaosOptions) Enabled() bool {
	return o.Drop > 0 || o.Delay > 0 || o.Err500 > 0 || o.Garbage > 0 || o.CrashAfter > 0
}

// WithChaos wraps a worker handler with fault injection. Faults apply to
// POST /evaluate only: /healthz and /readyz stay truthful, so the pool's
// circuit-breaker probes measure real process liveness rather than
// injected noise (a chaos worker is alive — it is its evaluation path
// that misbehaves). With no fault configured the handler is returned
// unwrapped.
func WithChaos(next http.Handler, o ChaosOptions) http.Handler {
	if !o.Enabled() {
		return next
	}
	exit := o.exit
	if exit == nil {
		exit = os.Exit
	}
	c := &chaos{o: o, exit: exit, rng: rand.New(rand.NewSource(o.Seed))}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/evaluate" {
			next.ServeHTTP(w, r)
			return
		}
		c.serve(next, w, r)
	})
}

// chaos is the middleware state: a request counter for CrashAfter and
// the seeded fault rng.
type chaos struct {
	o      ChaosOptions
	exit   func(int)
	served atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// draw rolls every fault once, in a fixed order, so the schedule depends
// only on the seed and the request arrival order.
func (c *chaos) draw() (drop, err500, garbage bool, stall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	drop = c.rng.Float64() < c.o.Drop
	delayed := c.rng.Float64() < c.o.Delay
	err500 = c.rng.Float64() < c.o.Err500
	garbage = c.rng.Float64() < c.o.Garbage
	if delayed {
		max := c.o.DelayMax
		if max <= 0 {
			max = 100 * time.Millisecond
		}
		stall = time.Duration(c.rng.Int63n(int64(max))) + 1
	}
	return
}

func (c *chaos) serve(next http.Handler, w http.ResponseWriter, r *http.Request) {
	if n := c.served.Add(1); c.o.CrashAfter > 0 && n > c.o.CrashAfter {
		c.exit(3)
		return // reachable only through an injected exit hook
	}
	drop, err500, garbage, stall := c.draw()
	if stall > 0 {
		select {
		case <-time.After(stall):
		case <-r.Context().Done():
			return // client gave up during the injected stall
		}
	}
	switch {
	case drop:
		// ErrAbortHandler is net/http's sanctioned way to sever the
		// connection without a response: the client observes EOF/reset,
		// exactly like a process crash mid-request.
		panic(http.ErrAbortHandler)
	case err500:
		writeError(w, http.StatusInternalServerError, errors.New("chaos: injected failure"))
	case garbage:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, `}}chaos{{ this is not JSON`)
	default:
		next.ServeHTTP(w, r)
	}
}
