package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesSummaryAndCSVs(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-dataset", "test", "-random", "12", "-iterations", "1",
		"-batch", "4", "-pool", "500", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"kfusion on ODROID-XU3",
		"iteration 1: predicted front ",
		"samples: 16 (12 random + 4 active learning), converged: false",
		"pareto front (sorted by runtime):",
		"parameter importance per objective",
		"results written to " + dir,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	// The CSVs are experiments.WriteCSV's — the columns cmd/figures writes.
	for name, header := range map[string]string{
		"kfusion_ODROID-XU3_samples.csv": "config_index,phase,iteration,runtime_s_per_frame,accuracy_ate_m",
		"kfusion_ODROID-XU3_front.csv":   "config_index,runtime_s_per_frame,accuracy_ate_m",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if lines[0] != header || len(lines) < 2 {
			t.Errorf("%s: header %q with %d rows, want %q and data", name, lines[0], len(lines)-1, header)
		}
	}

	// -q silences the per-phase progress lines, not the summary.
	out.Reset()
	if err := run([]string{"-dataset", "test", "-random", "12", "-iterations", "1",
		"-batch", "4", "-pool", "500", "-q"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "iteration ") || !strings.Contains(out.String(), "pareto front") {
		t.Errorf("-q output has progress lines or lacks the summary:\n%s", out.String())
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-benchmark", "orbslam", "-dataset", "test"},
		{"-platform", "abacus", "-dataset", "test"},
		{"-dataset", "tset"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("run(%v) = %v, want an unknown-name error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed before failing: %s", args, out.String())
		}
	}
}
