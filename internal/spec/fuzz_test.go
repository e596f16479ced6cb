package spec_test

import (
	"math"
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
	// A grid whose range overflows float64: every level is NaN or ±Inf.
	f.Add([]byte(`{"version": 1, "name": "hostile-grid",
  "parameters": [{"name": "x", "kind": "grid", "low": -1.7e308, "high": 1.7e308, "points": 3}],
  "objectives": ["f"], "evaluator": "http://127.0.0.1:1/evaluate"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := spec.Parse(data)
		if err != nil {
			return
		}
		p, err := catalog.FromSpec(sp)
		if err != nil {
			return
		}
		if len(p.Objectives) < 1 || p.Space.Dim() < 1 || p.Space.Size() < 1 || p.Eval == nil {
			t.Fatalf("materialized an unrunnable problem: %d objectives, %d parameters, size %d, evaluator %v",
				len(p.Objectives), p.Space.Dim(), p.Space.Size(), p.Eval)
		}
		// A non-finite level cannot be listed (encoding/json refuses it)
		// and no evaluator can be handed it.
		for _, prm := range p.Space.Params() {
			for _, v := range prm.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("parameter %q materialized with a non-finite level %v", prm.Name, v)
				}
			}
		}
	})
}
