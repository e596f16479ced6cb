package worker

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/forest"
	"repro/internal/sensor"
	"repro/internal/slambench"
)

// TestKFusionRemoteMatchesLocal sends the paper's evaluator through the
// pool: KFusion on the ODROID-XU3 model, at the benchmark ledger's 60×45,
// 10-frame cut of the test dataset and its kfusion_odroid budget (the 1.8
// M-point space, so the pool is redrawn every round). The front written
// by a run over two workers must be byte-identical to the in-process one.
func TestKFusionRemoteMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("two KFusion explorations in -short mode")
	}
	o := slambench.DatasetOptions("test")
	o.Width, o.Height, o.Frames = 60, 45, 10
	kb := slambench.NewKFusionBench(sensor.Generate(o))
	space := kb.Space()
	eval := slambench.Evaluator(kb, device.ODROIDXU3(), slambench.RuntimeAccuracy)
	objectives := slambench.RuntimeAccuracy.Names()
	opts := core.Options{
		Objectives: 2, RandomSamples: 48, MaxIterations: 2, MaxBatch: 16, PoolCap: 60_000,
		Forest: forest.Options{Trees: 16}, Seed: 1001,
	}
	front := func(res *core.Result) []byte {
		var b bytes.Buffer
		if err := core.NewStoredFront(space, res, "kfusion", "ODROID-XU3", objectives).Write(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	local, err := core.Run(space, eval, opts)
	if err != nil {
		t.Fatal(err)
	}

	var urls []string
	for range 2 {
		s := NewServer(2)
		if err := s.Register(Problem{Name: "kfusion/ODROID-XU3", Space: space, Eval: eval, Objectives: 2}); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	pool, err := NewPool(urls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Backend = pool.Backend("kfusion/ODROID-XU3", 2)
	remote, err := core.Run(space, nil, opts)
	if err != nil {
		t.Fatal(err)
	}

	if len(local.Samples) <= 48 || len(local.Front) == 0 {
		t.Fatalf("local run measured %d samples, front of %d: no active-learning round ran", len(local.Samples), len(local.Front))
	}
	if l, r := front(local), front(remote); !bytes.Equal(l, r) {
		t.Fatalf("front over two workers differs from the in-process one:\nlocal:\n%s\nremote:\n%s", l, r)
	}
	if fingerprint(local) != fingerprint(remote) {
		t.Fatal("samples over two workers differ from the in-process run")
	}
	for _, st := range pool.Stats() {
		if st.Requests == 0 {
			t.Fatalf("worker %s received no requests: %+v", st.URL, pool.Stats())
		}
	}
}
