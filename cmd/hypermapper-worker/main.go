// Command hypermapper-worker is the evaluation worker daemon: it registers
// the standard problem catalog (the same one hypermapperd serves) and
// measures configuration batches on behalf of a coordinator over the
// worker HTTP protocol (docs/WORKER_PROTOCOL.md).
//
// Usage:
//
//	hypermapper-worker -addr :9090
//	curl -s localhost:9090/healthz
//	curl -s localhost:9090/problems
//	curl -s -X POST localhost:9090/evaluate \
//	    -d '{"problem":"synthetic","configs":[[0,0,1],[4,4,3]]}'
//
// Point a coordinator at a fleet of these with
// `hypermapperd -workers http://host1:9090,http://host2:9090`.
//
// Spec-defined problems (docs/SCENARIOS.md) register the same way they do
// on the coordinator: -problems <dir> loads a spec directory at startup,
// POST /problems registers one at runtime (the coordinator and every
// worker must be given the same spec so their spaces agree), and
// -validate checks the catalog and exits.
//
// Resilience knobs: -shed-after N sheds /evaluate load with 503 +
// Retry-After once N requests are already in flight, and a signal first
// flips GET /readyz to 503 for -drain-grace before the listener closes,
// so rolling restarts stop receiving work before they stop serving it.
// The -chaos-* flags inject seeded faults into /evaluate (and only
// /evaluate — health endpoints stay truthful) for fleet-resilience
// testing; see docs/WORKER_PROTOCOL.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/worker"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hypermapper-worker: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hypermapper-worker", flag.ContinueOnError)
	var (
		boot  = catalog.NewDaemon("hypermapper-worker", fs, stdout)
		addr  = fs.String("addr", ":9090", "listen address")
		evals = fs.Int("eval-workers", 0,
			"concurrent evaluations per request batch (0 = GOMAXPROCS)")

		shedAfter = fs.Int("shed-after", 0,
			"shed /evaluate requests with 503 + Retry-After once this many are in flight (0 = never shed)")
		drainGrace = fs.Duration("drain-grace", 2*time.Second,
			"on shutdown, fail GET /readyz for this long before closing the listener")

		chaosDrop = fs.Float64("chaos-drop", 0,
			"probability of dropping an /evaluate connection mid-request")
		chaosDelay = fs.Float64("chaos-delay", 0,
			"probability of stalling an /evaluate request")
		chaosDelayMax = fs.Duration("chaos-delay-max", 100*time.Millisecond,
			"upper bound of an injected stall")
		chaos500 = fs.Float64("chaos-500", 0,
			"probability of answering /evaluate with an injected 500")
		chaosGarbage = fs.Float64("chaos-garbage", 0,
			"probability of answering /evaluate with a 200 and a non-JSON body")
		chaosCrashAfter = fs.Int64("chaos-crash-after", 0,
			"exit(3) on the Nth+1 /evaluate request (0 = never crash)")
		chaosSeed = fs.Int64("chaos-seed", 1,
			"seed for the chaos fault schedule")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: the usage is printed
		}
		return err
	}

	infof := boot.Info.Printf
	reg, err := boot.Catalog()
	if err != nil || reg == nil {
		return err // nil registry: -validate printed the catalog
	}

	ws := worker.NewServer(*evals)
	ws.SetSpecLoader(func(data []byte) (worker.Problem, error) {
		p, err := reg.AddSpecData(data)
		return toWorkerProblem(p), err
	})
	for _, p := range reg.Problems() {
		if err := ws.Register(toWorkerProblem(p)); err != nil {
			return fmt.Errorf("registering %s: %w", p.Name, err)
		}
	}

	ws.SetShedLimit(*shedAfter)

	handler := ws.Handler()
	chaosOpts := worker.ChaosOptions{
		Drop:       *chaosDrop,
		Delay:      *chaosDelay,
		DelayMax:   *chaosDelayMax,
		Err500:     *chaos500,
		Garbage:    *chaosGarbage,
		CrashAfter: *chaosCrashAfter,
		Seed:       *chaosSeed,
	}
	if chaosOpts.Enabled() {
		infof("chaos injection armed: drop=%.2g delay=%.2g err500=%.2g garbage=%.2g crash-after=%d seed=%d",
			chaosOpts.Drop, chaosOpts.Delay, chaosOpts.Err500, chaosOpts.Garbage,
			chaosOpts.CrashAfter, chaosOpts.Seed)
		handler = worker.WithChaos(handler, chaosOpts)
	}

	infof("listening on %s (%d problems)", *addr, len(ws.Problems()))
	return boot.Serve(&http.Server{Addr: *addr, Handler: handler}, func(ctx context.Context) {
		// Fail readiness first so load balancers and coordinators stop
		// routing new batches here, then give them a moment to notice.
		ws.SetDraining(true)
		infof("draining for %s before shutdown", *drainGrace)
		select {
		case <-time.After(*drainGrace):
		case <-ctx.Done():
		}
	})
}

func toWorkerProblem(p catalog.Problem) worker.Problem {
	return worker.Problem{
		Name:       p.Name,
		Space:      p.Space,
		Eval:       p.Eval,
		Objectives: len(p.Objectives),
	}
}
