// Command loadharness is a deterministic, seeded crowd simulator that
// drives a hypermapperd coordinator the way the paper's crowd-sourcing
// experiment (Fig. 5) implies at production scale: tens of thousands to
// hundreds of thousands of synthetic clients — each bound to a device
// profile from internal/device's platform market, with heavy-tailed
// think-time and poll-latency distributions and churn (join, leave, cancel
// mid-run) — submitting small exploration runs across several tenants with
// skewed offered load.
//
// By default the harness embeds its own daemon (a real net/http server over
// server.NewManagerConfig with the multi-tenant scheduler enabled) so one
// process proves the whole stack; -addr points it at an external
// hypermapperd instead.
//
// The harness is a test that happens to be a binary: after the crowd
// drains, it asserts
//
//   - starvation-freedom: every tenant completed at least one run;
//   - quota enforcement: the polled /stats never showed the fleet or any
//     tenant above its concurrency bound;
//   - bounded admission latency: the scheduler's p99 submit→dispatch wait
//     stays under -p99-bound;
//   - bounded memory: the process's peak RSS stays under -rss-bound-mb;
//   - cross-run coalescing: duplicate-seed tenants produced a non-zero
//     coalesce hit rate (memo-cache singleflight plus batch-merge dedup).
//
// and exits non-zero (printing "LOAD: FAIL ..." lines) when any of them
// does not hold. The results are the "LOAD:" summary lines it prints, which
// CI copies into the job summary:
//
//	go run ./cmd/loadharness -clients 100000 -duration 30s
//	go run ./cmd/loadharness -addr http://localhost:8089 -clients 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.Addr, "addr", "", "base URL of an external hypermapperd (empty = embed a daemon in-process)")
	flag.IntVar(&cfg.Clients, "clients", 100_000, "synthetic crowd size")
	flag.IntVar(&cfg.Tenants, "tenants", 3, "tenant count; offered load is skewed across them (tenant-0 most aggressive)")
	flag.DurationVar(&cfg.Duration, "duration", 30*time.Second, "submission window; polling drains for up to -grace afterwards")
	flag.DurationVar(&cfg.Grace, "grace", 10*time.Second, "post-deadline drain budget for in-flight runs")
	flag.Int64Var(&cfg.Seed, "seed", 1, "crowd seed: device market, per-client RNGs, think times, churn")
	flag.StringVar(&cfg.Problem, "problem", "synthetic", "problem the crowd explores")
	flag.IntVar(&cfg.Executors, "executors", 0, "concurrent HTTP executors (0 selects a CPU-derived default)")
	flag.IntVar(&cfg.MaxRunning, "max-concurrent-runs", 16, "embedded daemon: fleet-wide run slots")
	flag.IntVar(&cfg.TenantMaxRunning, "tenant-max-running", 8, "embedded daemon: per-tenant concurrent-run quota")
	flag.IntVar(&cfg.TenantMaxQueued, "tenant-max-queued", 256, "embedded daemon: per-tenant admission-queue bound")
	flag.DurationVar(&cfg.CoalesceWindow, "coalesce-window", 0, "embedded daemon: evaluation-batch merge window (0 = default)")
	flag.IntVar(&cfg.RunSeeds, "run-seeds", 8, "distinct run-request seeds shared across tenants; small values force duplicate configurations")
	flag.Float64Var(&cfg.P99BoundMS, "p99-bound", 10_000, "assertion bound on the scheduler's p99 admission wait, in ms")
	flag.Float64Var(&cfg.RSSBoundMB, "rss-bound-mb", 2048, "assertion bound on the process's peak RSS, in MiB (0 disables)")
	flag.BoolVar(&cfg.RequireCoalesce, "require-coalesce", true, "fail unless the coalesce hit rate is > 0")
	flag.BoolVar(&cfg.Verbose, "v", false, "per-phase progress output")
	flag.Parse()

	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadharness: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Failures) > 0 {
		os.Exit(1)
	}
}
