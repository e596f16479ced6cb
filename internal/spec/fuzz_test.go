package spec_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/spec"
)

// FuzzSpecParse feeds the spec decoder arbitrary documents — what POST
// /problems reads off the network on both daemons — and materializes the
// ones that parse. Neither step may panic, and a problem that materializes
// is one a run can start on: it has objectives, parameters and at least one
// configuration. (An exec: or http: binding starts no process and sends no
// request until the first evaluation.)
func FuzzSpecParse(f *testing.F) {
	shipped, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	if err != nil || len(shipped) == 0 {
		f.Fatalf("no shipped specs to seed from: %v", err)
	}
	for _, path := range shipped {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := spec.Parse(data)
		if err != nil {
			return
		}
		p, err := catalog.FromSpec(sp, nil)
		if err != nil {
			return
		}
		if len(p.Objectives) < 1 || p.Space.Dim() < 1 || p.Space.Size() < 1 || p.Eval == nil {
			t.Fatalf("materialized an unrunnable problem: %d objectives, %d parameters, size %d, evaluator %v",
				len(p.Objectives), p.Space.Dim(), p.Space.Size(), p.Eval)
		}
	})
}
