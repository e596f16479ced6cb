// Command hypermapperd is the HyperMapper coordinator daemon: it serves
// concurrent design-space-exploration sessions over a JSON REST API, one
// problem per benchmark × platform pair, with a shared evaluation
// memo-cache per problem. See internal/server for the endpoint list and
// docs/ARCHITECTURE.md for how the pieces fit.
//
// Usage:
//
//	hypermapperd -addr :8089
//	curl -s localhost:8089/problems
//	curl -s -X POST localhost:8089/runs -d '{"problem":"kfusion/ODROID-XU3","seed":1,"random_samples":60,"max_iterations":2}'
//	curl -s -X POST localhost:8089/runs -d '{"problem":"constrained-synthetic","seed":1,"strategy":{"feasibility":true,"selector":"acquisition"}}'
//	curl -s localhost:8089/runs/run-000001
//	curl -s localhost:8089/runs/run-000001/events     # NDJSON progress stream
//	curl -s localhost:8089/runs/run-000001/front
//	curl -s -X DELETE localhost:8089/runs/run-000001  # cancel
//
// With -workers the daemon stops evaluating in-process and fans every
// evaluation batch out to a fleet of hypermapper-worker daemons
// (docs/WORKER_PROTOCOL.md), with retries and hedged straggler
// re-dispatch:
//
//	hypermapperd -addr :8089 -workers http://w1:9090,http://w2:9090 -hedge-after 500ms
//
// The fleet is resilient by default: failed chunks retry with capped
// exponential backoff and full jitter (-retry-backoff), repeatedly
// failing workers trip a per-worker circuit breaker (-breaker-threshold)
// and are health-probed back in (-probe-interval), 503 + Retry-After
// responses from shedding workers are honored as backpressure, and
// -max-unmeasured lets runs tolerate a bounded fraction of unmeasured
// configurations per batch instead of failing outright. GET /stats
// exposes per-worker breaker state and trip counts.
//
// Every run is admitted through a fair-share scheduler (internal/sched).
// By default it bounds nothing; -max-concurrent-runs bounds fleet
// concurrency and the -tenant-* flags set per-tenant quotas, after which
// overflow queues per tenant (state "queued") and submissions past the
// queue bound are rejected with 429 + Retry-After. Setting any of them (or
// -coalesce-window) also merges concurrent runs' evaluation batches onto
// the shared backend. Tenants identify themselves via the request body's
// "tenant" field or the X-Tenant / X-API-Key headers:
//
//	hypermapperd -addr :8089 -max-concurrent-runs 8 -tenant-max-running 4 -tenant-max-queued 16
//	curl -s -X POST localhost:8089/runs -H 'X-Tenant: alice' -d '{"problem":"synthetic","seed":1,"priority":5}'
//
// Beyond the builtin catalog, declarative problem specs (docs/SCENARIOS.md)
// extend what the daemon serves: -problems <dir> loads every *.json spec at
// startup, POST /problems registers one at runtime, and -validate checks a
// spec directory and exits — the CI gate for shipped catalogs:
//
//	hypermapperd -problems specs
//	hypermapperd -validate -problems specs
//	curl -s -X POST localhost:8089/problems --data-binary @specs/dbms_knobs.json
//
// With -data-dir the daemon is durable: every run keeps an fsync'd
// evaluation journal, finished runs persist their status and front, the
// evaluation memo-cache spills to disk, and sessions survive restarts.
// Adding -resume replays interrupted runs' journals on startup and
// continues them from the first unmeasured configuration (seeded runs
// finish byte-identical to an uninterrupted run). GET /healthz reports
// liveness, GET /readyz readiness (503 while journal recovery runs):
//
//	hypermapperd -addr :8089 -data-dir /var/lib/hypermapper -resume
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/param"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/worker"
)

func main() {
	var (
		addr  = flag.String("addr", ":8089", "listen address")
		scale = flag.String("dataset", "dse", "dataset scale: full, dse, or test")
		power = flag.Bool("power", false, "add power as a third objective")

		sessionTTL = flag.Duration("session-ttl", time.Hour,
			"evict a finished session this long after it reaches a terminal state (0 retains forever)")
		maxSessions = flag.Int("max-sessions", 10000,
			"retained-session cap; finished sessions are evicted oldest-first past it (0 = unbounded)")
		shards = flag.Int("shards", 0,
			"session-store shard count (0 selects the default)")

		workers = flag.String("workers", "",
			"comma-separated hypermapper-worker base URLs; when set, evaluation batches are fanned out to this fleet instead of running in-process")
		hedgeAfter = flag.Duration("hedge-after", 0,
			"straggler threshold: re-dispatch a worker request outstanding this long to a second worker (0 = adaptive from the observed latency quantile, negative disables hedging)")
		chunkSize = flag.Int("chunk-size", 0,
			"max configurations per worker request (0 selects the default)")
		retries = flag.Int("retries", 0,
			"extra attempts per failed worker chunk, each on a different worker (0 selects the default)")
		retryBackoff = flag.Duration("retry-backoff", 0,
			"base delay before a worker retry; successive attempts back off exponentially with full jitter (0 selects the default)")
		breakerThreshold = flag.Int("breaker-threshold", 0,
			"consecutive failures that trip a worker's circuit breaker (0 selects the default, negative disables breakers)")
		probeInterval = flag.Duration("probe-interval", 0,
			"how often tripped workers are health-probed for readmission (0 selects the default)")
		maxUnmeasured = flag.Float64("max-unmeasured", 0,
			"default per-batch fraction of configurations a run may leave unmeasured before failing, 0..1 (requests can override)")

		maxConcurrentRuns = flag.Int("max-concurrent-runs", 0,
			"fleet-wide cap on concurrently running sessions (0 = no fleet-wide bound)")
		tenantMaxRunning = flag.Int("tenant-max-running", 0,
			"per-tenant concurrent-run quota (0 = bounded only by -max-concurrent-runs)")
		tenantMaxQueued = flag.Int("tenant-max-queued", 0,
			"per-tenant admission-queue depth; submissions past it are rejected with 429 + Retry-After (0 selects the default)")
		retryAfter = flag.Duration("retry-after", 0,
			"backoff hint attached to 429 queue-full rejections (0 selects the default)")
		coalesceWindow = flag.Duration("coalesce-window", 0,
			"how long a run's evaluation batch waits to merge with concurrent runs' batches before dispatch, once any admission bound turns merging on (0 selects the default, negative disables merging)")

		problemsDir = flag.String("problems", "",
			"directory of declarative problem specs (*.json, docs/SCENARIOS.md) to load at startup")
		validate = flag.Bool("validate", false,
			"build the problem catalog (builtins plus -problems specs), print it, and exit without serving")

		dataDir = flag.String("data-dir", "",
			"durable state directory: per-run evaluation journals, persisted results, and memo-cache spill live here and survive restarts (empty = in-memory only)")
		resume = flag.Bool("resume", false,
			"with -data-dir, replay interrupted runs' journals on startup and continue them; without it they are restored as failed (their journals stay on disk)")
		evalDelay = flag.Duration("eval-delay", 0,
			"artificial per-evaluation delay added to every in-process evaluator — a fault-injection aid that widens the window for kill/restart testing")
		quiet = flag.Bool("quiet", false,
			"suppress informational output and bridge-evaluator failure chatter (fatal errors still print)")
	)
	flag.Parse()

	infof := func(format string, args ...any) {
		fmt.Printf("hypermapperd: "+format+"\n", args...)
	}
	if *quiet {
		infof = func(string, ...any) {}
	}

	// Bridge evaluators (exec:/http: spec bindings) report measurement
	// failures through this logger. -quiet and -validate silence them (nil);
	// normal serving prefixes them onto stderr instead of leaking the
	// process-global log.Printf default.
	var bridgeLogf func(format string, args ...any)
	if !*quiet && !*validate {
		bridgeLogf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hypermapperd: "+format+"\n", args...)
		}
	}

	reg := catalog.NewRegistry()
	reg.SetLogf(bridgeLogf)
	if err := reg.RegisterBuiltins(*scale, *power); err != nil {
		fatalf("registering builtin problems: %v", err)
	}
	if *problemsDir != "" {
		n, err := reg.LoadDir(*problemsDir)
		if err != nil {
			fatalf("loading problem specs: %v", err)
		}
		infof("loaded %d problem specs from %s", n, *problemsDir)
	}
	if *validate {
		for _, p := range reg.Problems() {
			fmt.Printf("  %-28s %d params, %d objectives, size %d\n",
				p.Name, p.Space.Dim(), len(p.Objectives), p.Space.Size())
		}
		fmt.Printf("hypermapperd: catalog valid (%d problems)\n", reg.Len())
		return
	}

	cfg := server.Config{
		SessionTTL:  *sessionTTL,
		MaxSessions: *maxSessions,
		Shards:      *shards,
		DataDir:     *dataDir,
		Resume:      *resume,
		SpecLoader: func(data []byte) (server.Problem, error) {
			return catalog.FromSpecDataLogf(data, bridgeLogf)
		},
	}
	if *dataDir != "" && !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf("hypermapperd: "+format+"\n", args...)
		}
	}
	if *resume && *dataDir == "" {
		fatalf("-resume requires -data-dir")
	}
	if f := *maxUnmeasured; f < 0 || f > 1 {
		fatalf("-max-unmeasured %g must be in [0, 1]", f)
	}
	cfg.MaxUnmeasuredFraction = *maxUnmeasured
	// A daemon given none of these admits every run at once and leaves
	// evaluation batches unmerged (cfg.Sched stays nil).
	admission := "no admission bounds"
	if *maxConcurrentRuns > 0 || *tenantMaxRunning > 0 || *tenantMaxQueued > 0 || *coalesceWindow != 0 {
		cfg.Sched = &sched.Config{
			MaxRunning: *maxConcurrentRuns,
			Quota: sched.TenantQuota{
				MaxRunning: *tenantMaxRunning,
				MaxQueued:  *tenantMaxQueued,
			},
			RetryAfter:     *retryAfter,
			CoalesceWindow: *coalesceWindow,
		}
		admission = fmt.Sprintf("run slots: %d fleet-wide, %d per tenant (0 = unbounded), batch coalescing",
			*maxConcurrentRuns, *tenantMaxRunning)
	}
	if *workers != "" {
		urls := strings.Split(*workers, ",")
		pool, err := worker.NewPool(urls, worker.Options{
			HedgeAfter:       *hedgeAfter,
			ChunkSize:        *chunkSize,
			Retries:          *retries,
			RetryBackoff:     *retryBackoff,
			BreakerThreshold: *breakerThreshold,
			ProbeInterval:    *probeInterval,
		})
		if err != nil {
			fatalf("building worker pool: %v", err)
		}
		defer pool.Close()
		cfg.EvalPool = pool
	}

	problems := reg.Problems()
	if *evalDelay > 0 {
		for i := range problems {
			problems[i].Eval = delayEval{inner: problems[i].Eval, d: *evalDelay}
		}
	}
	mgr := server.NewManagerConfig(cfg, problems...)

	srv := &http.Server{Addr: *addr, Handler: mgr.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	mode := "in-process evaluation"
	if cfg.EvalPool != nil {
		mode = fmt.Sprintf("%d evaluation workers", cfg.EvalPool.Size())
	}
	if *dataDir != "" {
		mode += ", durable state in " + *dataDir
	}
	infof("listening on %s (%d problems, %s, %s)", *addr, len(mgr.Problems()), mode, admission)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Release the handler so a second signal kills the process
		// instead of being swallowed during the drain below.
		stop()
		infof("shutting down")
	case err := <-errc:
		fatalf("%v", err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Cancel sessions first: open /events streams only close when their
	// session reaches a terminal state, so draining HTTP before the
	// manager would stall on any connected progress stream.
	if err := mgr.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "hypermapperd: sessions still draining: %v\n", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "hypermapperd: http shutdown: %v\n", err)
	}
}

// delayEval adds a fixed sleep before every evaluation (-eval-delay): the
// builtin lookup problems answer in microseconds, far too fast for a
// kill/restart harness to land a signal mid-run.
type delayEval struct {
	inner core.Evaluator
	d     time.Duration
}

// Evaluate implements core.Evaluator.
func (e delayEval) Evaluate(cfg param.Config) []float64 {
	time.Sleep(e.d)
	return e.inner.Evaluate(cfg)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hypermapperd: "+format+"\n", args...)
	os.Exit(1)
}
