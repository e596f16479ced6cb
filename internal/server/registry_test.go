package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
)

// TestRuntimeSpecReachesStartupRegistry: cmd/hypermapperd hands the
// registry it was started from to POST /problems as Config.SpecLoader, so a
// spec registered at runtime is known to that registry too — the same
// problem value the manager serves — and a spec the loader refuses reaches
// neither.
func TestRuntimeSpecReachesStartupRegistry(t *testing.T) {
	reg := catalog.NewRegistry(nil)
	if err := reg.Register(catalog.Synthetic()); err != nil {
		t.Fatal(err)
	}
	mgr, ts := newTestServerConfig(t, Config{SpecLoader: reg.AddSpecData}, reg.Problems()...)

	doc, err := os.ReadFile(filepath.Join("..", "..", "specs", "dbms_knobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/problems", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(doc); code != http.StatusCreated {
		t.Fatalf("POST /problems = %d, want 201", code)
	}
	inRegistry, ok := reg.Get("dbms-knobs")
	if !ok {
		t.Fatal("the spec is served by the manager but unknown to the registry the daemon started from")
	}
	var served Problem
	for _, p := range mgr.Problems() {
		if p.Name == "dbms-knobs" {
			served = p
		}
	}
	if served.Space == nil || served.Space != inRegistry.Space {
		t.Fatalf("manager serves %+v, registry holds %+v: not one problem", served, inRegistry)
	}

	if code := post([]byte(`{"version":1,"name":"refused","parameters":[],"objectives":["f"],"evaluator":"builtin:dbms-model"}`)); code != http.StatusBadRequest {
		t.Fatalf("POST of a parameterless spec = %d, want 400", code)
	}
	if _, ok := reg.Get("refused"); ok || len(reg.Problems()) != 2 || len(mgr.Problems()) != 2 {
		t.Fatalf("a refused spec changed a catalog: registry %d problems, manager %d", len(reg.Problems()), len(mgr.Problems()))
	}
}
