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
package main

import (
	"flag"
	"fmt"
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
	var (
		benchName = flag.String("benchmark", "kfusion", "benchmark: kfusion or elasticfusion")
		platform  = flag.String("platform", "ODROID-XU3", "platform model (see -platforms)")
		scale     = flag.String("dataset", "full", "dataset scale: full or test")
		list      = flag.Bool("list", false, "print the design space and exit")
		platforms = flag.Bool("platforms", false, "print the platform models and exit")
		sets      setFlags
	)
	flag.Var(&sets, "set", "override parameter, name=value (repeatable)")
	flag.Parse()

	if *platforms {
		for _, m := range device.Platforms() {
			fmt.Printf("%-14s %s\n", m.Name, m.Class)
		}
		return
	}

	bench, err := slambench.ByName(*benchName, *scale)
	if err != nil {
		fatalf("%v", err)
	}

	if *list {
		fmt.Printf("design space of %s (%d configurations):\n", bench.Name(), bench.Space().Size())
		for _, p := range bench.Space().Params() {
			fmt.Printf("  %-22s %-12s %v\n", p.Name, p.Kind, p.Values)
		}
		return
	}

	dev, ok := device.ByName(*platform)
	if !ok {
		fatalf("unknown platform %q (try -platforms)", *platform)
	}

	cfg := bench.DefaultConfig()
	space := bench.Space()
	for _, kv := range sets {
		name, val, found := strings.Cut(kv, "=")
		if !found {
			fatalf("bad -set %q, want name=value", kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			fatalf("bad value in -set %q: %v", kv, err)
		}
		if space.IndexOfName(name) < 0 {
			fatalf("unknown parameter %q (try -list)", name)
		}
		cfg[space.IndexOfName(name)] = f
	}

	fmt.Printf("benchmark: %s on %s\nconfig: %s\n", bench.Name(), dev, space.FormatConfig(cfg))
	m, err := bench.Evaluate(cfg, dev)
	if err != nil {
		fatalf("evaluation failed: %v", err)
	}
	fmt.Printf("frames:          %d\n", m.Frames)
	fmt.Printf("mean ATE:        %.4f m\n", m.MeanATE)
	fmt.Printf("max ATE:         %.4f m  (accuracy limit %.2f m: valid=%v)\n",
		m.MaxATE, slambench.AccuracyLimit, m.MaxATE < slambench.AccuracyLimit)
	fmt.Printf("runtime:         %.1f ms/frame  (%.2f FPS)\n", m.SecPerFrame*1e3, m.FPS)
	fmt.Printf("sequence total:  %.1f s over %d frames\n", m.TotalSeconds, slambench.NominalFrames)
	fmt.Printf("modeled power:   %.2f W\n", m.PowerW)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "slambench: "+format+"\n", args...)
	os.Exit(1)
}
