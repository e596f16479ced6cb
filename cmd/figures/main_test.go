package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives one cheap run of each mode and every way the arguments
// can be wrong. A rejected invocation prints nothing: the scale, the
// generator keys, the budget and seed lists, the spec directory, the gate
// problem and the baseline are all checked before any generator or sweep
// runs.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "quality.json")
	empty := t.TempDir()
	for _, tc := range []struct {
		args    []string
		wantOut string // substring of stdout on success
		wantErr string // substring of the error; empty = must succeed
	}{
		{args: []string{"-scale", "test", "-only", "1", "-out", dir}, wantOut: "=== Figure 1 — KFusion response surface ==="},
		{args: []string{"-seed", "one"}, wantErr: "invalid value"},
		{args: []string{"-scale", "quik", "-out", dir}, wantErr: `unknown -scale "quik"`},
		{args: []string{"-only", "1,3c", "-out", dir}, wantErr: `unknown -only key "3c"`},

		{args: []string{"quality", "-specs", "../../specs", "-budgets", "25", "-seeds", "2", "-out", report}},
		{args: []string{"quality", "-specs", "../../specs", "-budgets", "25", "-seeds", "2", "-check", report, "-out", "-"},
			wantOut: `"strategy": "feasibility+acquisition"`},
		{args: []string{"quality", "-tolerance", "tight"}, wantErr: "invalid value"},
		{args: []string{"quality", "-budgets", "25,many"}, wantErr: "parsing -budgets"},
		{args: []string{"quality", "-seeds", "2,"}, wantErr: "parsing -seeds"},
		{args: []string{"quality", "-specs", empty}, wantErr: "no *.json spec files"},
		{args: []string{"quality", "-specs", "../../specs", "-gate", "nosuch"}, wantErr: `no problem "nosuch"`},
		{args: []string{"quality", "-specs", "../../specs", "-check", filepath.Join(dir, "missing.json")}, wantErr: "reading baseline"},
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
	if _, err := os.Stat(filepath.Join(dir, "fig1_response_surface.csv")); err != nil {
		t.Errorf("figure 1 wrote no CSV: %v", err)
	}
}
