// Command hypermapper runs the full multi-objective design-space
// exploration of the paper (Algorithm 1) on one benchmark × platform and
// reports the Pareto front. It is a front-end to experiments.RunDSE — the
// runner behind cmd/figures — so the scatter, the summary and the CSV
// format are the figures' own.
//
// Usage:
//
//	hypermapper -benchmark kfusion -platform ODROID-XU3 -random 120 -iterations 3
//	hypermapper -benchmark elasticfusion -platform GTX-780Ti -power -out results/
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/forest"
	"repro/internal/slambench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hypermapper: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hypermapper", flag.ContinueOnError)
	var (
		benchName  = fs.String("benchmark", "kfusion", "benchmark: kfusion or elasticfusion")
		platform   = fs.String("platform", "ODROID-XU3", "platform model")
		scale      = fs.String("dataset", "full", "dataset scale: full, dse, or test")
		randomN    = fs.Int("random", 120, "random bootstrap samples (rs of Algorithm 1)")
		iterations = fs.Int("iterations", 3, "active learning iterations")
		batch      = fs.Int("batch", 100, "max evaluations per AL iteration")
		pool       = fs.Int("pool", 60000, "prediction pool cap")
		trees      = fs.Int("trees", 24, "trees per objective forest")
		seed       = fs.Int64("seed", 1, "random seed")
		power      = fs.Bool("power", false, "add power as a third objective")
		out        = fs.String("out", "", "directory for the samples and front CSVs")
		quiet      = fs.Bool("q", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Install the interrupt handler before the (potentially slow) dataset
	// and benchmark construction so Ctrl-C cancels cooperatively from the
	// very start instead of killing the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bench, err := slambench.ByName(*benchName, *scale)
	if err != nil {
		return err
	}
	dev, ok := device.ByName(*platform)
	if !ok {
		return fmt.Errorf("unknown platform %q", *platform)
	}
	objs := slambench.RuntimeAccuracy
	if *power {
		objs = slambench.RuntimeAccuracyPower
	}
	budget := core.Options{
		RandomSamples: *randomN,
		MaxIterations: *iterations,
		MaxBatch:      *batch,
		PoolCap:       *pool,
		Forest:        forest.Options{Trees: *trees},
		Seed:          *seed,
	}
	if !*quiet {
		fmt.Fprintf(stdout, "exploring %s (%d configurations) on %s\n", bench.Name(), bench.Space().Size(), dev)
		budget.OnIteration = func(s core.IterationStats) {
			fmt.Fprintf(stdout, "iteration %d: predicted front %d, new samples %d, front size %d\n",
				s.Iteration, s.PredictedFrontSize, s.NewSamples, s.FrontSize)
		}
	}

	// Ctrl-C cancels the exploration cooperatively: the engine stops at the
	// next phase boundary and the partial front is still reported.
	res, err := experiments.RunDSE(ctx, bench, dev, objs, budget)
	// Release the signal handler: a second Ctrl-C during the reporting
	// phase should kill the process, not be swallowed.
	stop()
	switch {
	case err == nil:
	case res != nil && errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "hypermapper: interrupted — reporting partial results")
	default:
		return err
	}
	res.Render(stdout)

	space := bench.Space()
	fmt.Fprintln(stdout, "\npareto front (sorted by runtime):")
	for _, s := range core.FrontSamples(res.Run) {
		fmt.Fprintf(stdout, "  %8.4fs/frame  ATE %.4fm   %s\n", s.Objs[0], s.Objs[1], space.FormatConfig(s.Config))
	}
	// Feature importance of the final forests: which parameters drive each
	// metric (the paper's §IV-C correlation analysis, via the model).
	forests, err := res.Run.Forests()
	if err != nil {
		return fmt.Errorf("fitting the final forests: %w", err)
	}
	if len(forests) > 0 {
		fmt.Fprintln(stdout, "\nparameter importance per objective (impurity decrease):")
		params := space.Names()
		for k, f := range forests {
			fmt.Fprintf(stdout, "  %-19s", objs.Names()[k])
			for i, imp := range f.FeatureImportance() {
				fmt.Fprintf(stdout, " %s=%.2f", params[i], imp)
			}
			fmt.Fprintln(stdout)
		}
	}

	if *out != "" {
		if err := res.WriteCSV(*out, res.Benchmark+"_"+res.Platform); err != nil {
			return fmt.Errorf("writing results: %w", err)
		}
		fmt.Fprintf(stdout, "results written to %s\n", *out)
	}
	return nil
}
