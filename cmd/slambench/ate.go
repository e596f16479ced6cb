package main

import (
	"errors"
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

// runATE evaluates an estimated trajectory against ground truth in the
// TUM RGB-D format (the evaluation the SLAMBench ATE metric descends
// from): absolute trajectory error plus relative pose error.
//
// With -demo it generates a synthetic run (KFusion on the test dataset),
// writes both trajectories to the given directory and scores them —
// useful to see the format end-to-end.
func runATE(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slambench ate", flag.ContinueOnError)
	var (
		estPath = fs.String("est", "", "estimated trajectory (TUM format)")
		refPath = fs.String("ref", "", "ground-truth trajectory (TUM format)")
		maxDt   = fs.Float64("maxdt", 0.02, "max timestamp difference for association (s)")
		delta   = fs.Int("delta", 30, "RPE frame delta")
		demo    = fs.String("demo", "", "write a demo est/ref pair into this directory and score it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *demo != "" {
		return runDemo(*demo, stdout)
	}
	if *estPath == "" || *refPath == "" {
		return errors.New("need -est and -ref (or -demo DIR)")
	}
	return scoreFiles(*estPath, *refPath, *maxDt, *delta, stdout)
}

func readTraj(path string) (traj.Trajectory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := traj.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// scoreFiles reads both trajectories and scores them; nothing is printed
// unless both read and at least one pose pair associates.
func scoreFiles(estPath, refPath string, maxDt float64, delta int, stdout io.Writer) error {
	est, err := readTraj(estPath)
	if err != nil {
		return err
	}
	ref, err := readTraj(refPath)
	if err != nil {
		return err
	}
	e, r := traj.Associate(est, ref, maxDt)
	if len(e) == 0 {
		return errors.New("no associated pose pairs (check timestamps / -maxdt)")
	}
	ate, err := traj.ATE(e, r)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pairs:        %d / %d estimated poses\n", ate.Pairs, len(est))
	fmt.Fprintf(stdout, "ATE mean:     %.4f m\n", ate.Mean)
	fmt.Fprintf(stdout, "ATE median:   %.4f m\n", ate.Median)
	fmt.Fprintf(stdout, "ATE rmse:     %.4f m\n", ate.RMSE)
	fmt.Fprintf(stdout, "ATE max:      %.4f m   (valid under SLAMBench limit %.2f m: %v)\n",
		ate.Max, slambench.AccuracyLimit, ate.Max < slambench.AccuracyLimit)
	if delta < len(e) {
		rpe, err := traj.RPE(e, r, delta)
		if err == nil {
			fmt.Fprintf(stdout, "RPE(%d) trans: %.4f m (rmse %.4f), rot %.3f°\n",
				delta, rpe.TransMean, rpe.TransRMSE, rpe.RotMeanDeg)
		}
	}
	return nil
}

func runDemo(dir string, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ds := slambench.CachedDataset("test")
	cfg := kfusion.DefaultConfig()
	cfg.VolumeResolution = 128
	p, err := kfusion.Prepare(ds, cfg.ComputeRatio)
	if err != nil {
		return err
	}
	res, err := kfusion.Run(p, cfg)
	if err != nil {
		return err
	}
	estPath := filepath.Join(dir, "estimated.txt")
	refPath := filepath.Join(dir, "groundtruth.txt")
	if err := writeTraj(estPath, traj.FromPoses(res.Trajectory, 30)); err != nil {
		return err
	}
	if err := writeTraj(refPath, traj.FromPoses(ds.GroundTruth, 30)); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s and %s\n\n", estPath, refPath)
	return scoreFiles(estPath, refPath, 0.02, 10, stdout)
}

func writeTraj(path string, t traj.Trajectory) error {
	return journal.WriteFileAtomic(path, func(f io.Writer) error {
		return traj.Write(f, t)
	})
}
