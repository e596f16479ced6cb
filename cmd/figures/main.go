// Command figures regenerates the paper's evaluation artifacts — Figures
// 1, 3a, 3b, 4, 5 and Table I — writing CSVs to -out and rendering ASCII
// previews to the terminal.
//
// Usage:
//
//	figures                 # everything at quick scale into results/
//	figures -only 3a,5      # a subset
//	figures -scale full     # paper-scale sample budgets (hours)
//	figures quality -specs specs -check results/BENCH_quality_baseline.json -out BENCH_quality.json
//
// The quality subcommand is the search-quality counterpart of the paper's
// figures; quality.go describes it.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

// generators lists the -only keys in the order they run.
var generators = []string{"1", "3a", "3b", "4", "5", "t1"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "quality" {
		return runQuality(args[1:], stdout)
	}
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		scale = fs.String("scale", "quick", "experiment scale: test, quick or full")
		out   = fs.String("out", "results", "output directory for CSVs")
		only  = fs.String("only", "", "comma-separated subset of 1,3a,3b,4,5,t1 (default all)")
		seed  = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch experiments.Scale(*scale) {
	case experiments.ScaleTest, experiments.ScaleQuick, experiments.ScaleFull:
	default:
		return fmt.Errorf("unknown -scale %q, want test, quick or full", *scale)
	}
	keys := generators
	if *only != "" {
		keys = strings.Split(*only, ",")
	}
	want := map[string]bool{}
	for _, k := range keys {
		k = strings.TrimSpace(k)
		if !slices.Contains(generators, k) {
			return fmt.Errorf("unknown -only key %q, want a subset of %s", k, strings.Join(generators, ","))
		}
		want[k] = true
	}

	// The generators' progress lines, written to the process logger, go to
	// stdout indented under each step's title.
	log.SetFlags(0)
	log.SetPrefix("  ")
	log.SetOutput(stdout)
	opts := experiments.Options{Scale: experiments.Scale(*scale), OutDir: *out, Seed: *seed}

	type renderer interface{ Render(io.Writer) }
	var fig3a, fig4 *experiments.DSEResult
	steps := []struct {
		on    bool
		title string
		gen   func() (renderer, error)
	}{
		{want["1"], "Figure 1 — KFusion response surface", func() (renderer, error) {
			return experiments.Fig1(opts)
		}},
		{want["3a"] || want["5"], "Figure 3a — KFusion DSE on ODROID-XU3", func() (r renderer, err error) {
			fig3a, err = experiments.Fig3(opts, "ODROID-XU3")
			return fig3a, err
		}},
		{want["3b"], "Figure 3b — KFusion DSE on ASUS T200TA", func() (renderer, error) {
			return experiments.Fig3(opts, "ASUS-T200TA")
		}},
		{want["4"] || want["t1"], "Figure 4 — ElasticFusion DSE on GTX 780 Ti", func() (r renderer, err error) {
			fig4, err = experiments.Fig4(opts)
			return fig4, err
		}},
		{want["5"], "Figure 5 — crowd-sourcing across 83 market devices", func() (renderer, error) {
			return experiments.Fig5(opts, fig3a)
		}},
		{want["t1"], "Table I — ElasticFusion Pareto points", func() (renderer, error) {
			return experiments.Table1(opts, fig4)
		}},
	}
	start := time.Now()
	for _, s := range steps {
		if !s.on {
			continue
		}
		fmt.Fprintf(stdout, "\n=== %s ===\n", s.title)
		res, err := s.gen()
		if err != nil {
			return err
		}
		res.Render(stdout)
	}
	fmt.Fprintf(stdout, "\nall done in %s; CSVs in %s/\n", time.Since(start).Round(time.Second), *out)
	return nil
}
