// Command ate evaluates an estimated trajectory against ground truth in
// the TUM RGB-D format (the evaluation the SLAMBench ATE metric descends
// from): absolute trajectory error plus relative pose error.
//
// Usage:
//
//	ate -est estimated.txt -ref groundtruth.txt [-maxdt 0.02] [-delta 30]
//
// With -demo it generates a synthetic run (KFusion on the test dataset),
// writes both trajectories to the given directory and scores them —
// useful to see the format end-to-end.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/journal"
	"repro/internal/kfusion"
	"repro/internal/slambench"
	"repro/internal/traj"
)

func main() {
	var (
		estPath = flag.String("est", "", "estimated trajectory (TUM format)")
		refPath = flag.String("ref", "", "ground-truth trajectory (TUM format)")
		maxDt   = flag.Float64("maxdt", 0.02, "max timestamp difference for association (s)")
		delta   = flag.Int("delta", 30, "RPE frame delta")
		demo    = flag.String("demo", "", "write a demo est/ref pair into this directory and score it")
	)
	flag.Parse()

	if *demo != "" {
		runDemo(*demo)
		return
	}
	if *estPath == "" || *refPath == "" {
		fmt.Fprintln(os.Stderr, "ate: need -est and -ref (or -demo DIR)")
		os.Exit(1)
	}
	est := mustRead(*estPath)
	ref := mustRead(*refPath)
	score(est, ref, *maxDt, *delta)
}

func mustRead(path string) traj.Trajectory {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ate: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	t, err := traj.Read(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ate: %s: %v\n", path, err)
		os.Exit(1)
	}
	return t
}

func score(est, ref traj.Trajectory, maxDt float64, delta int) {
	e, r := traj.Associate(est, ref, maxDt)
	if len(e) == 0 {
		fmt.Fprintln(os.Stderr, "ate: no associated pose pairs (check timestamps / -maxdt)")
		os.Exit(1)
	}
	ate, err := traj.ATE(e, r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("pairs:        %d / %d estimated poses\n", ate.Pairs, len(est))
	fmt.Printf("ATE mean:     %.4f m\n", ate.Mean)
	fmt.Printf("ATE median:   %.4f m\n", ate.Median)
	fmt.Printf("ATE rmse:     %.4f m\n", ate.RMSE)
	fmt.Printf("ATE max:      %.4f m   (valid under SLAMBench limit %.2f m: %v)\n",
		ate.Max, slambench.AccuracyLimit, ate.Max < slambench.AccuracyLimit)
	if delta < len(e) {
		rpe, err := traj.RPE(e, r, delta)
		if err == nil {
			fmt.Printf("RPE(%d) trans: %.4f m (rmse %.4f), rot %.3f°\n",
				delta, rpe.TransMean, rpe.TransRMSE, rpe.RotMeanDeg)
		}
	}
}

func runDemo(dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "ate: %v\n", err)
		os.Exit(1)
	}
	ds := slambench.CachedDataset("test")
	cfg := kfusion.DefaultConfig()
	cfg.VolumeResolution = 128
	p, err := kfusion.Prepare(ds, cfg.ComputeRatio)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ate: %v\n", err)
		os.Exit(1)
	}
	res, err := kfusion.Run(p, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ate: %v\n", err)
		os.Exit(1)
	}
	estPath := filepath.Join(dir, "estimated.txt")
	refPath := filepath.Join(dir, "groundtruth.txt")
	writeTraj(estPath, traj.FromPoses(res.Trajectory, 30))
	writeTraj(refPath, traj.FromPoses(ds.GroundTruth, 30))
	fmt.Printf("wrote %s and %s\n\n", estPath, refPath)
	score(mustRead(estPath), mustRead(refPath), 0.02, 10)
}

func writeTraj(path string, t traj.Trajectory) {
	err := journal.WriteFileAtomic(path, func(f io.Writer) error {
		return traj.Write(f, t)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ate: %v\n", err)
		os.Exit(1)
	}
}
