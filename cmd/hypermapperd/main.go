// Command hypermapperd is the HyperMapper coordinator daemon: it serves
// concurrent design-space-exploration sessions over a JSON REST API.
//
// Usage:
//
//	hypermapperd -addr :8089
//	curl -s localhost:8089/problems
//	curl -s -X POST localhost:8089/runs -d '{"problem":"kfusion/ODROID-XU3","seed":1,"random_samples":60,"max_iterations":2}'
//	curl -s localhost:8089/runs/run-000001
//	curl -s localhost:8089/runs/run-000001/events     # NDJSON progress stream
//	curl -s localhost:8089/runs/run-000001/front
//	curl -s -X DELETE localhost:8089/runs/run-000001  # cancel
//
// README.md describes operation (worker fleets, tenants and quotas, problem
// specs, durable state and -resume); docs/ARCHITECTURE.md describes how the
// pieces fit; `hypermapperd -h` lists every flag.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // the handlers -pprof serves (catalog.Daemon)
	"os"
	"path/filepath"
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
		boot = catalog.NewDaemon("hypermapperd", flag.CommandLine, os.Stdout)
		addr = flag.String("addr", ":8089", "listen address")

		sessionTTL = flag.Duration("session-ttl", time.Hour,
			"evict a finished session this long after it reaches a terminal state (0 retains forever)")
		maxSessions = flag.Int("max-sessions", 10000,
			"retained-session cap; finished sessions are evicted oldest-first past it (0 = unbounded)")

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

		dataDir = flag.String("data-dir", "",
			"durable state directory: per-run evaluation journals, persisted results, and memo-cache spill live here and survive restarts (empty = in-memory only)")
		resume = flag.Bool("resume", false,
			"with -data-dir, replay interrupted runs' journals on startup and continue them; without it they are restored as failed (their journals stay on disk)")
		evalDelay = flag.Duration("eval-delay", 0,
			"artificial per-evaluation delay added to every in-process evaluator — a fault-injection aid that widens the window for kill/restart testing")
	)
	flag.Parse()

	infof, fatalf := boot.Info.Printf, boot.Err.Fatalf
	problems, err := boot.Catalog()
	if err != nil {
		fatalf("%v", err)
	}
	if problems == nil {
		return // -validate printed the catalog
	}

	cfg := server.Config{
		SessionTTL:  *sessionTTL,
		MaxSessions: *maxSessions,
		DataDir:     *dataDir,
		Resume:      *resume,
		SpecLoader:  catalog.FromSpecData,

		MaxUnmeasuredFraction: *maxUnmeasured,
	}
	if *resume && *dataDir == "" {
		fatalf("-resume requires -data-dir")
	}
	if f := *maxUnmeasured; f < 0 || f > 1 {
		fatalf("-max-unmeasured %g must be in [0, 1]", f)
	}
	if *dataDir != "" {
		lock, err := lockDataDir(*dataDir)
		if err != nil {
			fatalf("%v", err)
		}
		defer lock.Close() // held, and kept reachable, until the process exits
	}
	// A daemon given none of these admits every run at once (cfg.Sched
	// stays nil).
	admission := "no admission bounds"
	if *maxConcurrentRuns > 0 || *tenantMaxRunning > 0 || *tenantMaxQueued > 0 {
		cfg.Sched = &sched.Config{
			MaxRunning: *maxConcurrentRuns,
			Quota: sched.TenantQuota{
				MaxRunning: *tenantMaxRunning,
				MaxQueued:  *tenantMaxQueued,
			},
			RetryAfter: *retryAfter,
		}
		admission = fmt.Sprintf("run slots: %d fleet-wide, %d per tenant (0 = unbounded)",
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

	if *evalDelay > 0 {
		// The builtin lookup problems answer in microseconds, far too fast
		// for a kill/restart harness to land a signal mid-run.
		for i := range problems {
			inner := problems[i].Eval
			problems[i].Eval = core.EvaluatorFunc(func(cfg param.Config) []float64 {
				time.Sleep(*evalDelay)
				return inner.Evaluate(cfg)
			})
		}
	}
	mgr := server.NewManagerConfig(cfg, problems...)

	mode := "in-process evaluation"
	if cfg.EvalPool != nil {
		mode = fmt.Sprintf("%d evaluation workers", cfg.EvalPool.Size())
	}
	if *dataDir != "" {
		mode += ", durable state in " + *dataDir
	}
	infof("listening on %s (%d problems, %s, %s)", *addr, len(mgr.Problems()), mode, admission)

	err = boot.Serve(&http.Server{Addr: *addr, Handler: mgr.Handler()}, func(ctx context.Context) {
		infof("shutting down")
		// Sessions are cancelled before the HTTP drain: open /events
		// streams only close when their session reaches a terminal state,
		// so draining HTTP first would stall on any connected progress
		// stream.
		if err := mgr.Shutdown(ctx); err != nil {
			boot.Err.Printf("sessions still draining: %v", err)
		}
	})
	if err != nil {
		fatalf("%v", err)
	}
}

// lockDataDir takes <dir>/LOCK with an exclusive, non-blocking flock, so a
// second daemon on the same data directory fails at start instead of
// minting the same run IDs into the same journals. The kernel drops the
// lock when the process dies, SIGKILL included. Go opens files
// close-on-exec, so an exec-bridge program that outlives the daemon does
// not inherit, and so does not hold, the lock.
func lockDataDir(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "LOCK")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: another daemon holds this data directory: %w", path, err)
	}
	return f, nil
}
