package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the command's listing modes and every way its arguments
// can be wrong. A rejected invocation prints nothing: names, the dataset
// scale and -set overrides are all checked before anything is evaluated.
func TestRun(t *testing.T) {
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
