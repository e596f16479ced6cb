// Command qualitybench sweeps evaluation budgets over the shipped
// declarative problem specs and publishes hypervolume-vs-budget curves per
// search strategy (internal/quality) as BENCH_quality.json — the
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
//	qualitybench -specs specs -out BENCH_quality.json
//	qualitybench -specs specs -check results/BENCH_quality_baseline.json
//	qualitybench -specs specs -budgets 25,50,100,200 -seeds 1,2,3 -gate constrained-synthetic
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/quality"
)

func main() {
	var (
		specsDir = flag.String("specs", "specs",
			"directory of declarative problem specs (*.json) to sweep")
		budgets = flag.String("budgets", "25,50,100,200",
			"comma-separated evaluation budgets")
		seeds = flag.String("seeds", "2,5,6,8",
			"comma-separated seeds; curves average over them")
		out = flag.String("out", "",
			"write the report JSON here ('-' or empty = stdout)")
		check = flag.String("check", "",
			"committed baseline report to compare the default strategy against (empty = skip)")
		tolerance = flag.Float64("tolerance", 0.02,
			"relative hypervolume tolerance for both gates")
		gate = flag.String("gate", "constrained-synthetic",
			"problem on which feasibility+acquisition must reach the default strategy's hypervolume at every budget (empty = skip)")
	)
	flag.Parse()

	budgetVals, err := parseInts(*budgets)
	if err != nil {
		fatalf("parsing -budgets: %v", err)
	}
	seedVals, err := parseInt64s(*seeds)
	if err != nil {
		fatalf("parsing -seeds: %v", err)
	}
	problems, err := loadProblems(*specsDir)
	if err != nil {
		fatalf("%v", err)
	}

	strategies := []quality.Strategy{
		{Name: "default"},
		{Name: "acquisition", Strategy: core.Strategy{Selector: "acquisition"}},
		{Name: "feasibility+acquisition", Strategy: core.Strategy{Feasibility: true, Selector: "acquisition"}},
	}
	rep, err := quality.Sweep(context.Background(), problems, strategies, budgetVals, seedVals)
	if err != nil {
		fatalf("%v", err)
	}

	if err := writeReport(rep, *out); err != nil {
		fatalf("writing report: %v", err)
	}
	if *gate != "" {
		if err := rep.Gate(*gate, "feasibility+acquisition", "default", *tolerance); err != nil {
			fatalf("strategy gate failed: %v", err)
		}
		fmt.Fprintf(os.Stderr, "qualitybench: strategy gate passed on %s\n", *gate)
	}
	if *check != "" {
		base, err := readReport(*check)
		if err != nil {
			fatalf("reading baseline: %v", err)
		}
		if err := quality.Check(rep, base, "default", *tolerance); err != nil {
			fatalf("regression gate failed: %v", err)
		}
		fmt.Fprintf(os.Stderr, "qualitybench: regression gate passed against %s\n", *check)
	}
}

// loadProblems materializes every spec in dir into a sweepable problem.
// Shipped specs bind analytic builtin models, so the sweep stays cheap and
// deterministic.
func loadProblems(dir string) ([]catalog.Problem, error) {
	reg := catalog.NewRegistry(log.Printf)
	if _, err := reg.LoadDir(dir); err != nil {
		return nil, err
	}
	return reg.Problems(), nil
}

func writeReport(rep *quality.Report, path string) error {
	w := os.Stdout
	if path != "" && path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func readReport(path string) (*quality.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep quality.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qualitybench: "+format+"\n", args...)
	os.Exit(1)
}
