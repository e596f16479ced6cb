package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunValidatePrintsCatalog(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-validate", "-dataset", "test"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"  kfusion/ODROID-XU3           9 params, 2 objectives, size 1800000\n",
		"  synthetic                    3 params, 2 objectives, size 4800\n",
		"hypermapper-worker: catalog valid (9 problems)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil || !strings.Contains(err.Error(), "no-such-flag") {
		t.Fatalf("err = %v, want the unknown flag named", err)
	}
	if out.Len() != 0 {
		t.Fatalf("a rejected invocation printed on stdout: %q", out.String())
	}
}
