package worker

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestChaosDisabledReturnsHandlerUnwrapped(t *testing.T) {
	next := http.NewServeMux()
	if got := WithChaos(next, ChaosOptions{}); got != http.Handler(next) {
		t.Fatal("no-fault chaos should return the handler unwrapped")
	}
}

// chaosServer wraps the standard test worker with the given faults.
func chaosServer(t *testing.T, o ChaosOptions) *httptest.Server {
	t.Helper()
	return newWorker(t, func(next http.Handler) http.Handler { return WithChaos(next, o) })
}

func evaluateOnce(t *testing.T, url string) (*http.Response, error) {
	t.Helper()
	space := testSpace(t)
	cfg, err := json.Marshal(space.AtIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	body := `{"problem":"test","configs":[` + string(cfg) + `]}`
	return http.Post(url+"/evaluate", "application/json", strings.NewReader(body))
}

func TestChaosFaultsOnlyHitEvaluate(t *testing.T) {
	t.Run("err500", func(t *testing.T) {
		srv := chaosServer(t, ChaosOptions{Err500: 1})
		resp, err := evaluateOnce(t, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("evaluate = %d, want injected 500", resp.StatusCode)
		}
		// Probes must stay truthful: the process is alive.
		h, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		h.Body.Close()
		if h.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %d under chaos, want 200", h.StatusCode)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		srv := chaosServer(t, ChaosOptions{Garbage: 1})
		resp, err := evaluateOnce(t, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || json.Valid(body) {
			t.Fatalf("garbage fault: code %d, body %q (want 200 + invalid JSON)", resp.StatusCode, body)
		}
	})
	t.Run("drop", func(t *testing.T) {
		srv := chaosServer(t, ChaosOptions{Drop: 1})
		resp, err := evaluateOnce(t, srv.URL)
		if err == nil {
			resp.Body.Close()
			t.Fatal("dropped connection still produced a response")
		}
	})
	t.Run("delay", func(t *testing.T) {
		srv := chaosServer(t, ChaosOptions{Delay: 1, DelayMax: 30 * time.Millisecond})
		start := time.Now()
		resp, err := evaluateOnce(t, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delayed evaluate = %d, want 200", resp.StatusCode)
		}
		if time.Since(start) == 0 {
			t.Fatal("no measurable stall injected")
		}
	})
}

func TestChaosCrashAfter(t *testing.T) {
	var exited atomic.Int64
	srv := chaosServer(t, ChaosOptions{CrashAfter: 2, exit: func(code int) { exited.Store(int64(code)) }})
	for i := 0; i < 2; i++ {
		resp, err := evaluateOnce(t, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d before the crash point", i, resp.StatusCode)
		}
	}
	if exited.Load() != 0 {
		t.Fatal("exited before CrashAfter requests were served")
	}
	resp, err := evaluateOnce(t, srv.URL)
	if err == nil {
		resp.Body.Close()
	}
	if exited.Load() != 3 {
		t.Fatalf("exit code = %d, want 3 on request CrashAfter+1", exited.Load())
	}
}

func TestChaosScheduleIsSeedReproducible(t *testing.T) {
	o := ChaosOptions{Drop: 0.3, Delay: 0.3, Err500: 0.3, Garbage: 0.3, Seed: 11}
	a := &chaos{o: o, rng: rand.New(rand.NewSource(o.Seed))}
	b := &chaos{o: o, rng: rand.New(rand.NewSource(o.Seed))}
	for i := 0; i < 200; i++ {
		ad, ae, ag, as := a.draw()
		bd, be, bg, bs := b.draw()
		if ad != bd || ae != be || ag != bg || as != bs {
			t.Fatalf("draw %d diverged across equal seeds", i)
		}
	}
}
