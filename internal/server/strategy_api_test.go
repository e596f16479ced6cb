package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"
)

// TestStrategyRequestEcho: a run's resolved strategy — defaults filled in —
// must be visible on the created status and on every later GET /runs/{id},
// for the default request and for a fully non-default pipeline alike.
func TestStrategyRequestEcho(t *testing.T) {
	_, ts := newTestServer(t, testProblem("toy", 0))

	st := postRun(t, ts, RunRequest{
		Problem: "toy", Seed: 1, RandomSamples: 20, MaxIterations: 1, MaxBatch: 10,
	})
	want := StrategyInfo{Sampler: "uniform", Modeler: "forest", Selector: "even-thin"}
	if st.Strategy != want {
		t.Fatalf("default strategy echoed as %+v, want %+v", st.Strategy, want)
	}
	if final := waitTerminal(t, ts, st.ID); final.Strategy != want {
		t.Fatalf("terminal strategy = %+v, want %+v", final.Strategy, want)
	}

	st = postRun(t, ts, RunRequest{
		Problem: "toy", Seed: 2, RandomSamples: 20, MaxIterations: 1, MaxBatch: 10,
		Strategy: StrategyRequest{Sampler: "prior", Feasibility: true, Selector: "acquisition"},
	})
	want = StrategyInfo{Sampler: "prior", Modeler: "feasibility", Selector: "acquisition"}
	if st.Strategy != want {
		t.Fatalf("advanced strategy echoed as %+v, want %+v", st.Strategy, want)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("advanced-strategy run ended %s (error %q)", final.State, final.Error)
	}
	if final.Strategy != want {
		t.Fatalf("terminal strategy = %+v, want %+v", final.Strategy, want)
	}
}

// TestStrategyBadNamesRejected: unknown stage names are a 400 at request
// time, not an engine failure later.
func TestStrategyBadNamesRejected(t *testing.T) {
	_, ts := newTestServer(t, testProblem("toy", 0))
	for _, body := range []string{
		`{"problem":"toy","strategy":{"sampler":"sobol"}}`,
		`{"problem":"toy","strategy":{"selector":"greedy"}}`,
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestEventStreamCarriesHypervolume: every /events NDJSON line must carry a
// hypervolume field, and once the bootstrap has measured a real front the
// value is a positive number (null is reserved for "undefined", mirroring
// oob_error's NaN handling).
func TestEventStreamCarriesHypervolume(t *testing.T) {
	_, ts := newTestServer(t, testProblem("toy", 0))
	st := postRun(t, ts, RunRequest{
		Problem: "toy", Seed: 7, RandomSamples: 30, MaxIterations: 2, MaxBatch: 20,
	})
	waitTerminal(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []IterationEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if _, ok := raw["hypervolume"]; !ok {
			t.Fatalf("event line %q has no hypervolume field", sc.Text())
		}
		var ev IterationEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events", len(events))
	}
	// 30 bootstrap samples on the toy problem always span a real range, so
	// the hypervolume is defined from the first event on and never shrinks
	// under the tightening reference.
	for i, ev := range events {
		hv := float64(ev.Hypervolume)
		if math.IsNaN(hv) || hv <= 0 {
			t.Fatalf("event %d hypervolume = %v, want a positive number", i, hv)
		}
	}
}

// TestStrategyUnknownNameInPersistedRequestRunsDefault: validate() refuses
// unknown names at submit, so only a hand-edited persisted request carries
// one. A restarted daemon runs it, and echoes it, as the default strategy
// instead of failing the run.
func TestStrategyUnknownNameInPersistedRequestRunsDefault(t *testing.T) {
	m, _ := newTestServer(t, testProblem("toy", 0))
	s := &session{
		problem: testProblem("toy", 0),
		req:     RunRequest{Problem: "toy", Strategy: StrategyRequest{Sampler: "sobol", Feasibility: true}},
	}
	if got := m.buildOpts(s).Strategy; got != (StrategyRequest{}) {
		t.Fatalf("engine strategy = %+v, want the default", got)
	}
	if got, want := s.liveStatus().Strategy, (StrategyRequest{}).Info(); got != want {
		t.Fatalf("echoed strategy = %+v, want the defaults %+v", got, want)
	}
}
