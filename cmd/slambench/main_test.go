package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives the command's listing modes, one cheap run of each
// subcommand and every way the arguments can be wrong. A rejected
// invocation prints nothing: names, the dataset scale, -set overrides,
// trajectory files and output directories are all checked before anything
// is evaluated or rendered.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	file := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const pose = " 1 2 3 0 0 0 1\n"
	ref := file("ref.txt", "# timestamp tx ty tz qx qy qz qw\n0"+pose+"0.5"+pose+"1"+pose)
	late := file("late.txt", "10"+pose)
	short := file("short.txt", "0 1 2\n")
	missing := filepath.Join(dir, "missing.txt")
	for _, tc := range []struct {
		args    []string
		wantOut string // substring of stdout on success
		wantErr string // substring of the error; empty = must succeed
	}{
		{args: []string{"-dataset", "test", "-list"}, wantOut: "design space of kfusion (1800000 configurations)"},
		{args: []string{"-benchmark", "elasticfusion", "-dataset", "test", "-list"}, wantOut: "icp-rgb-weight"},
		{args: []string{"-platforms"}, wantOut: "GTX-780Ti      discrete-gpu"},
		{args: []string{"-dataset", "test", "-set", "mu"}, wantErr: "want name=value"},
		{args: []string{"-dataset", "test", "-set", "mu=thick"}, wantErr: "bad value"},
		{args: []string{"-dataset", "test", "-set", "nu=0.1"}, wantErr: `unknown parameter "nu"`},
		{args: []string{"-dataset", "tset"}, wantErr: "full|dse|test"},

		{args: []string{"ate", "-demo", filepath.Join(dir, "demo")}, wantOut: "RPE(10) trans:"},
		{args: []string{"ate", "-est", ref, "-ref", ref, "-delta", "1"}, wantOut: "pairs:        3 / 3 estimated poses"},
		{args: []string{"ate", "-maxdt", "soon"}, wantErr: "invalid value"},
		{args: []string{"ate", "-est", ref}, wantErr: "need -est and -ref"},
		{args: []string{"ate", "-est", missing, "-ref", ref}, wantErr: "no such file"},
		{args: []string{"ate", "-est", ref, "-ref", short}, wantErr: "short.txt: traj: line 1 has 3 fields"},
		{args: []string{"ate", "-est", late, "-ref", ref}, wantErr: "no associated pose pairs"},
		{args: []string{"ate", "-demo", ref}, wantErr: "not a directory"},

		{args: []string{"render", "-frames", "1", "-width", "32", "-height", "24", "-out", filepath.Join(dir, "pgm")}, wantOut: "frame 0 -> "},
		{args: []string{"render", "-noise", "loud"}, wantErr: "invalid value"},
		{args: []string{"render", "-trajectory", "lr-kt9"}, wantErr: `unknown trajectory "lr-kt9"`},
		{args: []string{"render", "-frames", "1", "-out", ref}, wantErr: "not a directory"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if tc.wantErr == "" {
			if err != nil || !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("run(%v) = %v, output %q, want it to contain %q", tc.args, err, out.String(), tc.wantOut)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.wantErr)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed before failing: %s", tc.args, out.String())
		}
	}
}
