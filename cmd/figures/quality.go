package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/quality"
)

// runQuality sweeps evaluation budgets over the shipped declarative
// problem specs and publishes hypervolume-vs-budget curves per search
// strategy (internal/quality) as BENCH_quality.json — the
// optimization-quality counterpart of the performance bench artifacts.
//
// It enforces two quality gates:
//
//   - Strategy gate (-gate): on the named problem, the
//     feasibility+acquisition pipeline must reach at least the default
//     pipeline's hypervolume at every measured budget.
//   - Regression gate (-check): the default pipeline's curves must reach
//     the committed baseline report at every (problem, budget) point.
//     Sweeps are seeded and deterministic, so a drift means the engine's
//     search behavior changed.
//
// Usage:
//
//	figures quality -specs specs -out BENCH_quality.json
//	figures quality -specs specs -check results/BENCH_quality_baseline.json
//	figures quality -specs specs -budgets 25,50,100,200 -seeds 1,2,3 -gate constrained-synthetic
func runQuality(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("figures quality", flag.ContinueOnError)
	var (
		specsDir = fs.String("specs", "specs",
			"directory of declarative problem specs (*.json) to sweep")
		budgets = fs.String("budgets", "25,50,100,200",
			"comma-separated evaluation budgets")
		seeds = fs.String("seeds", "2,5,6,8",
			"comma-separated seeds; curves average over them")
		out = fs.String("out", "",
			"write the report JSON here ('-' or empty = stdout)")
		check = fs.String("check", "",
			"committed baseline report to compare the default strategy against (empty = skip)")
		tolerance = fs.Float64("tolerance", 0.02,
			"relative hypervolume tolerance for both gates")
		gate = fs.String("gate", "constrained-synthetic",
			"problem on which feasibility+acquisition must reach the default strategy's hypervolume at every budget (empty = skip)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	budgetVals, err := parseList(*budgets, strconv.Atoi)
	if err != nil {
		return fmt.Errorf("parsing -budgets: %w", err)
	}
	seedVals, err := parseList(*seeds, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
	if err != nil {
		return fmt.Errorf("parsing -seeds: %w", err)
	}
	// Shipped specs bind analytic builtin models, so the sweep stays cheap
	// and deterministic.
	problems, err := catalog.LoadDir(*specsDir)
	if err != nil {
		return err
	}
	if *gate != "" && !slices.ContainsFunc(problems, func(p catalog.Problem) bool { return p.Name == *gate }) {
		return fmt.Errorf("-gate: no problem %q in %s", *gate, *specsDir)
	}
	var base *quality.Report
	if *check != "" {
		base = new(quality.Report)
		if err := journal.ReadJSON(*check, base); err != nil {
			return fmt.Errorf("reading baseline %s: %w", *check, err)
		}
	}

	strategies := []quality.Strategy{
		{Name: "default"},
		{Name: "acquisition", Strategy: core.Strategy{Selector: "acquisition"}},
		{Name: "feasibility+acquisition", Strategy: core.Strategy{Feasibility: true, Selector: "acquisition"}},
	}
	rep, err := quality.Sweep(context.Background(), problems, strategies, budgetVals, seedVals)
	if err != nil {
		return err
	}

	if *out == "" || *out == "-" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
	} else {
		err = journal.WriteJSONAtomic(*out, rep)
	}
	if err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	if *gate != "" {
		if err := rep.Gate(*gate, "feasibility+acquisition", "default", *tolerance); err != nil {
			return fmt.Errorf("strategy gate failed: %w", err)
		}
		fmt.Fprintf(os.Stderr, "figures quality: strategy gate passed on %s\n", *gate)
	}
	if base != nil {
		if err := quality.Check(rep, base, "default", *tolerance); err != nil {
			return fmt.Errorf("regression gate failed: %w", err)
		}
		fmt.Fprintf(os.Stderr, "figures quality: regression gate passed against %s\n", *check)
	}
	return nil
}

// parseList parses a comma-separated list, each element trimmed.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
