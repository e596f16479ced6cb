// Command slambench runs a single configuration of one of the two SLAM
// benchmarks on a chosen platform model and prints its metrics — the
// stand-in for the SLAMBench CLI the paper measures with.
//
// Usage:
//
//	slambench -benchmark kfusion -platform ODROID-XU3 [-set name=value ...]
//	slambench -benchmark elasticfusion -platform GTX-780Ti -set icp-rgb-weight=5 -set fast-odom=1
//
// Without -set flags the expert default configuration runs. -list prints
// the design space of the chosen benchmark.
//
// Two subcommands cover the rest of the SLAMBench workflow:
//
//	slambench ate -est estimated.txt -ref groundtruth.txt [-maxdt 0.02] [-delta 30]
//	slambench ate -demo DIR
//	slambench render -trajectory lr-kt2 -frames 5 -out previews/
//
// ate scores a trajectory against ground truth; render writes previews of
// the synthetic dataset. Both are described in ate.go and render.go.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/device"
	"repro/internal/slambench"
)

type setFlags []string

func (s *setFlags) String() string { return strings.Join(*s, ",") }

func (s *setFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "slambench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "ate":
			return runATE(args[1:], stdout)
		case "render":
			return runRender(args[1:], stdout)
		}
	}
	fs := flag.NewFlagSet("slambench", flag.ContinueOnError)
	var (
		benchName = fs.String("benchmark", "kfusion", "benchmark: kfusion or elasticfusion")
		platform  = fs.String("platform", "ODROID-XU3", "platform model (see -platforms)")
		scale     = fs.String("dataset", "full", "dataset scale: full, dse, or test")
		list      = fs.Bool("list", false, "print the design space and exit")
		platforms = fs.Bool("platforms", false, "print the platform models and exit")
		sets      setFlags
	)
	fs.Var(&sets, "set", "override parameter, name=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *platforms {
		for _, m := range device.Platforms() {
			fmt.Fprintf(stdout, "%-14s %s\n", m.Name, m.Class)
		}
		return nil
	}

	bench, err := slambench.ByName(*benchName, *scale)
	if err != nil {
		return err
	}

	if *list {
		fmt.Fprintf(stdout, "design space of %s (%d configurations):\n", bench.Name(), bench.Space().Size())
		for _, p := range bench.Space().Params() {
			fmt.Fprintf(stdout, "  %-22s %-12s %v\n", p.Name, p.Kind, p.Values)
		}
		return nil
	}

	dev, ok := device.ByName(*platform)
	if !ok {
		return fmt.Errorf("unknown platform %q (try -platforms)", *platform)
	}

	cfg := bench.DefaultConfig()
	space := bench.Space()
	for _, kv := range sets {
		name, val, found := strings.Cut(kv, "=")
		if !found {
			return fmt.Errorf("bad -set %q, want name=value", kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("bad value in -set %q: %w", kv, err)
		}
		if space.IndexOfName(name) < 0 {
			return fmt.Errorf("unknown parameter %q (try -list)", name)
		}
		cfg[space.IndexOfName(name)] = f
	}

	fmt.Fprintf(stdout, "benchmark: %s on %s\nconfig: %s\n", bench.Name(), dev, space.FormatConfig(cfg))
	m, err := bench.Evaluate(cfg, dev)
	if err != nil {
		return fmt.Errorf("evaluation failed: %w", err)
	}
	fmt.Fprintf(stdout, "frames:          %d\n", m.Frames)
	fmt.Fprintf(stdout, "mean ATE:        %.4f m\n", m.MeanATE)
	fmt.Fprintf(stdout, "max ATE:         %.4f m  (accuracy limit %.2f m: valid=%v)\n",
		m.MaxATE, slambench.AccuracyLimit, m.MaxATE < slambench.AccuracyLimit)
	fmt.Fprintf(stdout, "runtime:         %.1f ms/frame  (%.2f FPS)\n", m.SecPerFrame*1e3, m.FPS)
	fmt.Fprintf(stdout, "sequence total:  %.1f s over %d frames\n", m.TotalSeconds, slambench.NominalFrames)
	fmt.Fprintf(stdout, "modeled power:   %.2f W\n", m.PowerW)
	return nil
}
