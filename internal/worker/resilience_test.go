package worker

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/param"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

func TestBreakerTripsAtThresholdAndSuccessReadmits(t *testing.T) {
	p, err := NewPool([]string{"http://a", "http://b"}, Options{BreakerThreshold: 3, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	boom := errors.New("boom")
	p.account(0, outcome{kind: failed, err: boom})
	p.account(0, outcome{kind: failed, err: boom})
	if p.tripped(0) {
		t.Fatal("tripped below the threshold")
	}
	// A success in between resets the consecutive count.
	p.account(0, outcome{kind: succeeded})
	p.account(0, outcome{kind: failed, err: boom})
	p.account(0, outcome{kind: failed, err: boom})
	if p.tripped(0) {
		t.Fatal("tripped despite an interleaved success")
	}
	p.account(0, outcome{kind: failed, err: boom})
	if !p.tripped(0) {
		t.Fatal("not tripped at the threshold")
	}
	st := p.Stats()
	if st[0].Breaker != "open" || st[0].Trips != 1 || st[0].LastError != "boom" {
		t.Fatalf("open stats = %+v", st[0])
	}
	if st[1].Breaker != "closed" || st[1].Trips != 0 {
		t.Fatalf("untouched worker stats = %+v", st[1])
	}
	// A stray success on a tripped worker readmits it immediately.
	p.account(0, outcome{kind: succeeded})
	st = p.Stats()
	if st[0].Breaker != "closed" || st[0].LastError != "" {
		t.Fatalf("post-readmission stats = %+v", st[0])
	}
	if st[0].Trips != 1 {
		t.Fatalf("trip count lost on readmission: %+v", st[0])
	}
}

func TestBreakerDisabledByNegativeThreshold(t *testing.T) {
	p, err := NewPool([]string{"http://a"}, Options{BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 50; i++ {
		p.account(0, outcome{kind: failed, err: errors.New("boom")})
	}
	if p.tripped(0) {
		t.Fatal("disabled breaker tripped")
	}
	if st := p.Stats(); st[0].LastError != "boom" {
		t.Fatalf("last error should still be recorded: %+v", st[0])
	}
}

func TestPickSkipsTrippedWorkers(t *testing.T) {
	p, err := NewPool([]string{"http://a", "http://b", "http://c"}, Options{BreakerThreshold: 1, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.account(1, outcome{kind: failed, err: errors.New("down")})
	for i := 0; i < 20; i++ {
		if got := p.pick(nil); got == 1 {
			t.Fatal("pick returned a tripped worker")
		}
	}
	// Tripped composes with the per-chunk avoid set.
	for i := 0; i < 20; i++ {
		if got := p.pick(map[int]bool{0: true}); got != 2 {
			t.Fatalf("pick = %d, want the only healthy unavoided worker 2", got)
		}
	}
	// An all-tripped fleet keeps receiving traffic (a success is what
	// readmits a worker fastest).
	p.account(0, outcome{kind: failed, err: errors.New("down")})
	p.account(2, outcome{kind: failed, err: errors.New("down")})
	seen := map[int]bool{}
	for i := 0; i < 20; i++ {
		seen[p.pick(nil)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("all-tripped pick covered %v, want all workers", seen)
	}
}

func TestBreakerProbeReadmitsWhenHealthzRecovers(t *testing.T) {
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && healthy.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	p, err := NewPool([]string{srv.URL, "http://other"}, Options{BreakerThreshold: 1, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.account(0, outcome{kind: failed, err: errors.New("connection refused")})
	if !p.tripped(0) {
		t.Fatal("not tripped")
	}
	// Unhealthy probes must keep it open (give the loop a few cycles).
	time.Sleep(40 * time.Millisecond)
	if !p.tripped(0) {
		t.Fatal("readmitted while /healthz was failing")
	}
	healthy.Store(true)
	waitFor(t, 2*time.Second, func() bool { return !p.tripped(0) }, "probe readmission")
	st := p.Stats()
	if st[0].Breaker != "closed" || st[0].Trips != 1 || st[0].LastError != "" {
		t.Fatalf("post-probe stats = %+v", st[0])
	}
}

func TestRetryDelayJitterBoundsAndDeterminism(t *testing.T) {
	opts := Options{RetryBackoff: 10 * time.Millisecond, retryBackoffCap: 80 * time.Millisecond}
	p, err := NewPool([]string{"http://a"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	caps := []struct {
		attempt int
		max     time.Duration
	}{
		{1, 10 * time.Millisecond},
		{2, 20 * time.Millisecond},
		{3, 40 * time.Millisecond},
		{4, 80 * time.Millisecond},
		{5, 80 * time.Millisecond},  // capped
		{63, 80 * time.Millisecond}, // shift-overflow guard
	}
	for _, c := range caps {
		for i := 0; i < 50; i++ {
			if d := p.retryDelay(c.attempt); d < 0 || d > c.max {
				t.Fatalf("retryDelay(%d) = %v, want within [0, %v]", c.attempt, d, c.max)
			}
		}
	}
	// Equal seeds draw equal schedules — the property the chaos e2e's
	// byte-identical comparison leans on.
	a, _ := NewPool([]string{"http://a"}, opts)
	b, _ := NewPool([]string{"http://a"}, opts)
	defer a.Close()
	defer b.Close()
	for i := 1; i < 20; i++ {
		if da, db := a.retryDelay(i), b.retryDelay(i); da != db {
			t.Fatalf("equal-seed pools diverged at draw %d: %v vs %v", i, da, db)
		}
	}
}

// Regression: a hedge leg that completed successfully but lost the race
// used to vanish from the latency window, skewing the adaptive hedge
// threshold toward the winners. Loser service times are recorded exactly
// once — successful legs only — and in the window's unit, time per
// configuration, as the launch goroutine reports them.
func TestHedgeLoserServiceTimeRecordedOnce(t *testing.T) {
	p, err := NewPool([]string{"http://a", "http://b"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	replies := make(chan outcome, 2)
	replies <- outcome{kind: succeeded, perConfig: 5 * time.Millisecond}                // successful loser
	replies <- outcome{kind: cancelled, err: errors.New("context canceled"), worker: 1} // cancelled loser
	p.drainLosers("prob", replies, 2)
	w := p.window("prob")
	waitFor(t, 2*time.Second, func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.n >= 1
	}, "loser latency record")
	time.Sleep(10 * time.Millisecond) // would catch a spurious second record
	w.mu.Lock()
	n, lat := w.n, slices.Clone(w.lat)
	w.mu.Unlock()
	if n != 1 || len(lat) != 1 || lat[0] != 5*time.Millisecond {
		t.Fatalf("window recorded %d completions %v, want exactly the successful loser's 5ms per configuration", n, lat)
	}
}

func TestBackpressure503WaitedOutWithoutFailureOrRetryBudget(t *testing.T) {
	var calls atomic.Int64
	srv := newWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/evaluate" && calls.Add(1) <= 2 {
				w.Header().Set("Retry-After", "0")
				writeError(w, http.StatusServiceUnavailable, errors.New("saturated"))
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	// Retries: -1 means zero retries — backpressure alone must carry the
	// chunk through both 503s.
	pool, err := NewPool([]string{srv.URL}, Options{Retries: -1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	space := testSpace(t)
	cfgs := []param.Config{space.AtIndex(0), space.AtIndex(1)}
	objs, err := pool.Backend("test", 2).EvaluateBatch(t.Context(), cfgs)
	if err != nil {
		t.Fatalf("batch failed despite backpressure handling: %v", err)
	}
	for i, ob := range objs {
		if ob == nil {
			t.Fatalf("config %d unmeasured", i)
		}
	}
	st := pool.Stats()
	if st[0].Failures != 0 {
		t.Fatalf("503 shedding counted as failure: %+v", st[0])
	}
	if st[0].Breaker != "closed" {
		t.Fatalf("503 shedding reached the breaker: %+v", st[0])
	}
}

func TestParseRetryAfter(t *testing.T) {
	for _, c := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0}, {"2", 2 * time.Second}, {" 3 ", 3 * time.Second},
		{"-1", 0}, {"soon", 0}, {"Wed, 21 Oct 2015 07:28:00 GMT", 0},
	} {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWorkerShedLimitAndReadyz(t *testing.T) {
	release := make(chan struct{})
	s := NewServer(1)
	space := testSpace(t)
	err := s.Register(Problem{Name: "block", Space: space, Objectives: 1,
		Eval: core.EvaluatorFunc(func(cfg param.Config) []float64 {
			<-release
			return []float64{1}
		})})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer close(release)

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}

	s.SetShedLimit(1)
	cfg, err := json.Marshal(space.AtIndex(0))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"problem":"block","configs":[%s]}`, cfg)
	go func() {
		resp, err := http.Post(srv.URL+"/evaluate", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, 2*time.Second, func() bool { return s.reqs.Load() == 1 }, "first request to occupy the limit")

	resp, err = http.Post(srv.URL+"/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated evaluate = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 shed reply missing Retry-After")
	}
	if got := s.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// Draining flips readiness but not liveness.
	s.SetDraining(true)
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !h.Draining || h.Shed != 1 {
		t.Fatalf("draining healthz: code %d, body %+v", resp.StatusCode, h)
	}
}
