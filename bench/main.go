// Command bench is the repository's performance ledger: five seeded
// workloads that each stress a different layer, every front checked for
// correctness in the same command, end-to-end metrics taken with tracing
// off and per-layer metrics taken from a separate traced pass. See
// README.md beside this file and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"

	"repro/internal/journal"
)

// resultLine is the last line a workload run prints: the contract
// BENCHMARK.json's reader holds the benchmark to.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is recorded in every result file: a number means nothing
// without the machine it was taken on.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"engine_workers"`
	Go         string  `json:"go"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func readEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    engineWorkers(),
		Go:         runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown", // a checkout that is not a git repository carries no stamp
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(data), &env.LoadAvg1)
	}
	return env
}

// workloadResult is everything one run of one workload produced. The set
// files that -compare reads are lists of these.
type workloadResult struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Env      environment `json:"env"`
	resultLine
	Failures []string `json:"failures,omitempty"`
	// Samples are the per-run times behind time_to_front_s, in the order the
	// runs were issued. time_to_front_tail_s is taken from them in blocks of
	// Block runs (0: one block), and Percentile is the one it reports: the
	// highest with ten of a block's samples beyond it. See blockTail.
	Samples    []float64 `json:"time_to_front_samples_s"`
	Block      int       `json:"tail_block_runs"`
	Percentile int       `json:"tail_percentile"`
	// Digests maps a run's seed to the SHA-256 of its front, the form
	// golden.json keeps.
	Digests map[string]string `json:"digests,omitempty"`
}

// resultSet is one pass over every workload.
type resultSet struct {
	Workloads []workloadResult `json:"workloads"`
}

// resultFile is what the driver writes and -compare reads.
type resultFile struct {
	Sets []resultSet `json:"sets"`
}

const (
	goldenPath    = "golden.json"
	benchmarkPath = "../BENCHMARK.json"
	specPath      = "../specs/dbms_knobs.json"
	outPath       = "out"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name         = fs.String("workload", "", "run this one workload in this process and print its result line; empty: run all five, one child process each")
		seed         = fs.Int64("seed", 1, "base seed every run's seed derives from")
		seconds      = fs.Float64("seconds", 10, "nominal length of a workload's timed phase on the reference sandbox; sets the amount of work, which is then fixed")
		trace        = fs.Int("trace", 0, "1: record spans around every layer and print the per-layer metrics; 0: print the end-to-end metrics")
		sets         = fs.Int("sets", 1, "run the whole set this many times and compare the first with the last")
		compare      = fs.Bool("compare", false, "compare two result files given as arguments and print a verdict per metric and workload")
		updateGolden = fs.Bool("update-golden", false, "record every front's digest in golden.json instead of checking it")
		out          = fs.String("out", filepath.Join(outPath, "results.json"), "result file the driver writes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result files, got %d arguments", fs.NArg()))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		c := &config{seed: *seed, seconds: *seconds, out: outPath}
		if !*updateGolden {
			var err error
			if c.golden, err = readGolden(); err != nil {
				return fail(err)
			}
		}
		if *trace != 0 {
			c.t = newTracer()
		}
		res, err := runWorkload(w, c)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		if err := writeJSON(childResultPath(w.name, c.t != nil), res); err != nil {
			return fail(err)
		}
		printResult(stdout, res)
		if !res.Correct {
			return 1
		}
		return 0
	}
	return drive(stdout, stderr, *seed, *seconds, *trace != 0, *sets, *updateGolden, *out)
}

func childResultPath(workload string, traced bool) string {
	suffix := ""
	if traced {
		suffix = "_traced"
	}
	return filepath.Join(outPath, "result_"+workload+suffix+".json")
}

// printResult prints every metric by name with its unit, one summary line,
// and last the contract's result line.
func printResult(w io.Writer, res *workloadResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-28s %-36s %14.6g %s\n", res.Workload, n, m.Value, m.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "%s: FAILED: %s\n", res.Workload, f)
	}
	tail, percentile, blocks := blockTail(res.Samples, res.Block)
	fmt.Fprintf(w, "%s: seed %d, %d runs, %d failed, median %.4gs, tail %.4gs (p%d, median over %d block(s)), load %.2f\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, median(res.Samples),
		tail, percentile, blocks, res.Env.LoadAvg1)
	line, _ := json.Marshal(res.resultLine) // numbers and strings only
	fmt.Fprintf(w, "%s\n", line)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return journal.WriteJSONAtomic(path, v)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// drive runs every workload in a child process of its own, so that peak
// memory and CPU time are per workload, and gathers the children's result
// files into one.
func drive(stdout, stderr io.Writer, seed int64, seconds float64, traced bool, sets int, updateGolden bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var file resultFile
	ok := true
	for range max(sets, 1) {
		var set resultSet
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
			if traced {
				args = append(args, "-trace", "1")
			}
			if updateGolden {
				args = append(args, "-update-golden")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			runErr := cmd.Run()
			var res workloadResult
			if err := readJSON(childResultPath(w.name, traced), &res); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v (child: %v)\n", w.name, err, runErr)
				return 1
			}
			ok = ok && runErr == nil
			set.Workloads = append(set.Workloads, res)
		}
		file.Sets = append(file.Sets, set)
	}
	if err := writeJSON(out, file); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	if updateGolden {
		if err := writeGolden(seed, file.Sets[0]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", goldenPath)
	}
	if len(file.Sets) > 1 {
		bounds, err := readBounds()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		first, last := resultFile{Sets: file.Sets[:1]}, resultFile{Sets: file.Sets[len(file.Sets)-1:]}
		if compareSets(stdout, bounds, first, last) {
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// golden holds the digest of every front at one base seed, and the
// toolchain it was recorded with: fronts are byte-stable for one compiler
// and architecture, not across them (fused multiply-add, sort internals).
type golden struct {
	Go     string                       `json:"go"`
	GOARCH string                       `json:"goarch"`
	Seed   int64                        `json:"seed"`
	Fronts map[string]map[string]string `json:"fronts"` // workload → run seed → SHA-256
}

// readGolden returns nil, and no error, when there is no golden file yet.
func readGolden() (*golden, error) {
	var g golden
	if err := readJSON(goldenPath, &g); err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return &g, nil
}

// digestsFor returns the digests that apply to this process's runs of a
// workload: none unless the base seed and the toolchain are the recorded
// ones.
func (g *golden) digestsFor(workload string, seed int64) map[string]string {
	if g == nil || g.Seed != seed || g.Go != runtime.Version() || g.GOARCH != runtime.GOARCH {
		return nil
	}
	return g.Fronts[workload]
}

func writeGolden(seed int64, set resultSet) error {
	g := golden{Go: runtime.Version(), GOARCH: runtime.GOARCH, Seed: seed, Fronts: map[string]map[string]string{}}
	for _, w := range set.Workloads {
		if len(w.Digests) > 0 { // a workload that is not byte-stable records none
			g.Fronts[w.Workload] = w.Digests
		}
	}
	return writeJSON(goldenPath, g)
}

// bound is one end-to-end metric's row in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds() ([]bound, error) {
	var b struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := readJSON(benchmarkPath, &b); err != nil {
		return nil, err
	}
	return b.EndToEnd, nil
}

func compareFiles(w io.Writer, a, b string) (regressed bool, err error) {
	bounds, err := readBounds()
	if err != nil {
		return false, err
	}
	var fa, fb resultFile
	if err := readJSON(a, &fa); err != nil {
		return false, err
	}
	if err := readJSON(b, &fb); err != nil {
		return false, err
	}
	return compareSets(w, bounds, fa, fb), nil
}

// values returns what a result file holds for one (metric, workload) pair,
// one value per set. runs are the per-run times of the file's last set when
// the metric is the run time: they are shown beside the verdict, not judged,
// because they spread with the inputs (a cold run against a cached one), not
// with the noise between two measurements of the same thing.
func (f resultFile) values(metric, workload string) (perSet, runs []float64) {
	for _, set := range f.Sets {
		for _, w := range set.Workloads {
			if w.Workload != workload || w.Trace {
				continue
			}
			if m, ok := w.Metrics[metric]; ok {
				perSet = append(perSet, m.Value)
			}
			if metric == "time_to_front_s" {
				runs = w.Samples
			}
		}
	}
	return perSet, runs
}

// compareSets prints one row per (metric, workload) pair and reports
// whether any pair regressed or any run of b failed.
func compareSets(w io.Writer, bounds []bound, a, b resultFile) (regressed bool) {
	fmt.Fprintf(w, "%-24s %-24s %12s %12s %8s %6s  %-28s %-28s %s\n",
		"workload", "metric", "a median", "b median", "worse", "bound", "a quartiles", "b quartiles", "verdict")
	for _, wl := range workloads {
		for _, m := range bounds {
			va, ra := a.values(m.Name, wl.name)
			vb, rb := b.values(m.Name, wl.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, verdict := judge(va, vb, m.Better == "lower", m.Bound)
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(w, "%-24s %-24s %12.6g %12.6g %+7.1f%% %5.0f%%  %-28s %-28s %s\n",
				wl.name, m.Name, median(va), median(vb), worse*100, m.Bound*100, quartiles(va, ra), quartiles(vb, rb), verdict)
		}
	}
	for _, set := range b.Sets {
		for _, r := range set.Workloads {
			if r.Failed > 0 || !r.Correct {
				regressed = true
				fmt.Fprintf(w, "%-24s %d of %d runs failed: %s\n", r.Workload, r.Failed, r.Attempted, strings.Join(r.Failures, "; "))
			}
		}
	}
	return regressed
}

// quartiles shows the quartiles of a metric's per-set values where there
// are enough sets, and failing that of the per-run times.
func quartiles(perSet, runs []float64) string {
	xs, of := perSet, "sets"
	if len(xs) < minForQuartiles {
		xs, of = runs, "runs"
	}
	if len(xs) < minForQuartiles {
		return fmt.Sprintf("sets: %d", len(perSet))
	}
	return fmt.Sprintf("%.4g..%.4g of %d %s", quantile(xs, 0.25), quantile(xs, 0.75), len(xs), of)
}
