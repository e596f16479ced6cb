package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDaemonsAgreeOnCatalog: the worker protocol names evaluators and
// nothing else, so a coordinator and its workers must build the same
// catalog from the same flags. Both real binaries run -validate over the
// builtin problems plus the shipped specs; with the program-name prefix
// stripped, their listings (names, parameter and objective counts, sizes)
// must be identical, and silent on stderr.
func TestDaemonsAgreeOnCatalog(t *testing.T) {
	specs, err := filepath.Abs(filepath.Join("..", "..", "specs"))
	if err != nil {
		t.Fatal(err)
	}
	listing := func(bin, name string) string {
		t.Helper()
		cmd := exec.Command(bin, "-validate", "-dataset", "test", "-problems", specs)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil || stderr.Len() != 0 {
			t.Fatalf("%s -validate: %v\nstdout:\n%s\nstderr:\n%s", name, err, out, stderr.String())
		}
		return strings.ReplaceAll(string(out), name+": ", "")
	}
	coordinator := listing(buildDaemon(t), "hypermapperd")
	worker := listing(buildWorker(t), "hypermapper-worker")
	if coordinator != worker {
		t.Fatalf("the daemons disagree on the catalog:\nhypermapperd:\n%s\nhypermapper-worker:\n%s", coordinator, worker)
	}
	for _, want := range []string{
		"loaded 3 problem specs from " + specs,
		"  kfusion/ODROID-XU3           9 params, 2 objectives, size 1800000\n",
		"  dbms-knobs                   7 params, 2 objectives, size 75600\n",
		"catalog valid (12 problems)\n",
	} {
		if !strings.Contains(coordinator, want) {
			t.Errorf("listing lacks %q:\n%s", want, coordinator)
		}
	}
}
