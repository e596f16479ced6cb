package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/param"
)

func TestPlanChunksTable(t *testing.T) {
	for _, tc := range []struct {
		n, workers, chunkSize int
		want                  []int // chunk sizes
	}{
		{0, 3, 32, nil},
		{1, 3, 32, []int{1}},
		{2, 3, 32, []int{1, 1}},
		{3, 3, 32, []int{1, 1, 1}},
		{16, 3, 32, []int{5, 5, 6}}, // an active-learning batch: one chunk before, three now
		{16, 2, 32, []int{8, 8}},    // the same batch with one breaker open
		{96, 3, 32, []int{32, 32, 32}},
		{97, 3, 32, []int{16, 16, 16, 16, 16, 17}}, // a second round rather than one 33-chunk
		{240, 3, 32, []int{26, 27, 27, 26, 27, 27, 26, 27, 27}},
		{240, 1, 32, []int{30, 30, 30, 30, 30, 30, 30, 30}},
		{7, 3, 1, []int{1, 1, 1, 1, 1, 1, 1}}, // the ceiling wins over the multiple
		{10, 4, 64, []int{2, 3, 2, 3}},
	} {
		bounds := planChunks(tc.n, tc.workers, tc.chunkSize)
		var got []int
		for i := 1; i < len(bounds); i++ {
			got = append(got, bounds[i]-bounds[i-1])
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("planChunks(%d, %d, %d) cuts %v, want %v", tc.n, tc.workers, tc.chunkSize, got, tc.want)
		}
	}
}

// tripAll opens the breaker of every listed worker, as BreakerThreshold
// consecutive failures would.
func tripAll(p *Pool, workers ...int) {
	for _, w := range workers {
		for range p.opts.BreakerThreshold {
			p.account(w, outcome{kind: failed, err: errors.New("injected")})
		}
	}
}

// TestPlanChunksProperties checks the planner over every n 0…300, fleet
// of 1…5, ceiling in {1, 4, 32, 64} and subset of tripped workers, taking
// the healthy count from a pool's real breakers.
func TestPlanChunksProperties(t *testing.T) {
	for workers := 1; workers <= 5; workers++ {
		urls := make([]string, workers)
		for i := range urls {
			urls[i] = fmt.Sprintf("http://w%d", i)
		}
		for tripped := 0; tripped < 1<<workers; tripped++ {
			// The probe loop a trip starts must not readmit anyone mid-test.
			p, err := NewPool(urls, Options{BreakerThreshold: 1, ProbeInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			healthy := workers
			for w := range workers {
				if tripped&(1<<w) != 0 {
					tripAll(p, w)
					healthy--
				}
			}
			if healthy == 0 {
				healthy = workers // an all-tripped fleet plans as if all were healthy
			}
			if got := len(p.candidates(nil)); got != healthy {
				t.Fatalf("%d workers, tripped mask %b: len(candidates(nil)) = %d, want %d", workers, tripped, got, healthy)
			}
			p.Close()
			for _, chunkSize := range []int{1, 4, 32, 64} {
				for n := 0; n <= 300; n++ {
					checkPlan(t, n, healthy, chunkSize)
				}
			}
		}
	}
}

func checkPlan(t *testing.T, n, healthy, chunkSize int) {
	t.Helper()
	bounds := planChunks(n, healthy, chunkSize)
	k := len(bounds) - 1
	fail := func(why string) {
		t.Helper()
		t.Fatalf("planChunks(%d, %d, %d) = %v: %s", n, healthy, chunkSize, bounds, why)
	}
	if bounds[0] != 0 || bounds[k] != n {
		fail("chunks do not tile [0, n)")
	}
	if want := min(n, healthy*((n+healthy*chunkSize-1)/(healthy*chunkSize))); k != want {
		fail(fmt.Sprintf("%d chunks, want %d", k, want))
	}
	smallest, largest := n, 0
	for i := 1; i <= k; i++ {
		size := bounds[i] - bounds[i-1]
		if size < 1 {
			fail("empty or out-of-order chunk")
		}
		smallest, largest = min(smallest, size), max(largest, size)
	}
	if largest > chunkSize {
		fail("chunk exceeds the ceiling")
	}
	if k > 0 && largest-smallest > 1 {
		fail("chunk sizes differ by more than one")
	}
	// Whole rounds of the fleet, so round-robin hands every healthy worker
	// the same number of chunks — unless the ceiling forces one
	// configuration per chunk, which only a ceiling of 1 can do once the
	// batch is as large as the fleet.
	if k%healthy != 0 && k != n {
		fail("chunk count is neither a multiple of the healthy workers nor one per configuration")
	}
	if n >= healthy && chunkSize > 1 && k%healthy != 0 {
		fail("chunk count is not a multiple of the healthy workers")
	}
}

// memFleet is an http.RoundTripper that serves worker daemons in memory,
// keyed by URL host, and records what each was sent: the dispatch layer
// with no sockets under it.
type memFleet struct {
	handlers map[string]http.Handler
	requests atomic.Int64 // POST /evaluate requests, all hosts

	recordSizes bool // also decode each request to count its configurations
	mu          sync.Mutex
	sizes       map[string][]int // host → configurations per request
}

// newMemFleet serves n 2-slot workers with the test problem registered and
// returns their URLs.
func newMemFleet(t testing.TB, n int) (*memFleet, []string) {
	t.Helper()
	f := &memFleet{handlers: make(map[string]http.Handler), sizes: make(map[string][]int)}
	urls := make([]string, n)
	for i := range urls {
		host := fmt.Sprintf("w%d", i)
		f.handlers[host] = newServer(t, testEval()).Handler()
		urls[i] = "http://" + host
	}
	return f, urls
}

func (f *memFleet) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := f.handlers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("memFleet: no worker %q", req.URL.Host)
	}
	if req.URL.Path == "/evaluate" {
		f.requests.Add(1)
		if f.recordSizes {
			body, err := io.ReadAll(req.Body)
			if err != nil {
				return nil, err
			}
			var er EvaluateRequest
			if err := json.Unmarshal(body, &er); err != nil {
				return nil, err
			}
			f.mu.Lock()
			f.sizes[req.URL.Host] = append(f.sizes[req.URL.Host], len(er.Configs))
			f.mu.Unlock()
			req.Body = io.NopCloser(bytes.NewReader(body))
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

func testConfigs(t testing.TB, n int) []param.Config {
	t.Helper()
	space := testSpace(t)
	cfgs := make([]param.Config, n)
	for i := range cfgs {
		cfgs[i] = space.AtIndex(int64(i*13) % space.Size())
	}
	return cfgs
}

// TestBatchReachesEveryHealthyWorker is the planner seen from the wire: a
// 16-configuration batch — half a default ChunkSize, one request to one
// worker under the old fixed stride — reaches all three workers, and with
// one breaker open only the two that can take it, one chunk each, wherever
// the round-robin cursor stands.
func TestBatchReachesEveryHealthyWorker(t *testing.T) {
	cfgs := testConfigs(t, 16)
	eval := testEval()
	run := func(t *testing.T, trip []int, cursor int64) map[string][]int {
		fleet, urls := newMemFleet(t, 3)
		fleet.recordSizes = true
		pool, err := NewPool(urls, Options{
			Client:           &http.Client{Transport: fleet},
			BreakerThreshold: 1,
			ProbeInterval:    time.Hour, // nobody is readmitted mid-test
			HedgeAfter:       -1,        // one request per chunk, so sizes are the plan's
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		tripAll(pool, trip...)
		pool.cursor.Store(cursor)
		out, err := pool.Backend("test", 2).EvaluateBatch(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, objs := range out {
			if want := eval.Evaluate(cfgs[i]); !slices.Equal(objs, want) {
				t.Fatalf("config %d: objectives %v, want %v", i, objs, want)
			}
		}
		for _, sizes := range fleet.sizes {
			slices.Sort(sizes)
		}
		return fleet.sizes
	}

	t.Run("all healthy", func(t *testing.T) {
		got := run(t, nil, 0)
		total := 0
		for _, host := range []string{"w0", "w1", "w2"} {
			if len(got[host]) != 1 || got[host][0] < 5 || got[host][0] > 6 {
				t.Fatalf("worker %s was sent %v, want one request of 5–6 configurations (all: %v)", host, got[host], got)
			}
			total += got[host][0]
		}
		if total != len(cfgs) {
			t.Fatalf("fleet was sent %d configurations, want %d: %v", total, len(cfgs), got)
		}
	})
	t.Run("one breaker open", func(t *testing.T) {
		// Every tripped worker at every cursor phase: a round-robin that
		// skipped the tripped worker handed its successor both chunks.
		for tripped := range 3 {
			for cursor := range int64(3) {
				got := run(t, []int{tripped}, cursor)
				down := fmt.Sprintf("w%d", tripped)
				if len(got[down]) != 0 {
					t.Fatalf("cursor %d: tripped worker %s was sent %v", cursor, down, got[down])
				}
				for _, host := range []string{"w0", "w1", "w2"} {
					if host != down && !slices.Equal(got[host], []int{8}) {
						t.Fatalf("%s tripped, cursor %d: worker %s was sent %v, want one request of 8 (all: %v)", down, cursor, host, got[host], got)
					}
				}
			}
		}
	})
	t.Run("every breaker open", func(t *testing.T) {
		// Planned as a whole fleet — three chunks, not one. Which worker takes
		// each is pick's business: the first success closes a breaker, and the
		// chunks still unplaced then prefer that worker.
		var sent []int
		for _, sizes := range run(t, []int{0, 1, 2}, 0) {
			sent = append(sent, sizes...)
		}
		slices.Sort(sent)
		if !slices.Equal(sent, []int{5, 5, 6}) {
			t.Fatalf("an all-tripped fleet was sent chunks of %v, want [5 5 6]", sent)
		}
	})
}

// TestLatencyWindowUnitIsOneConfiguration drives real requests and reads
// what they left in the window: a request's service time divided by the
// configurations it carried, so chunks of different sizes are comparable.
func TestLatencyWindowUnitIsOneConfiguration(t *testing.T) {
	const delay = 40 * time.Millisecond
	srv := newWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			next.ServeHTTP(w, r)
		})
	})
	pool, err := NewPool([]string{srv.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const n = 8
	if _, err := pool.Backend("test", 2).EvaluateBatch(context.Background(), testConfigs(t, n)); err != nil {
		t.Fatal(err)
	}
	w := pool.window("test")
	w.mu.Lock()
	lat := slices.Clone(w.lat)
	w.mu.Unlock()
	if len(lat) != 1 || lat[0] < delay/n || lat[0] >= delay {
		t.Fatalf("window holds %v after one %d-configuration request of ≥ %v, want one entry in [%v, %v)", lat, n, delay, delay/n, delay)
	}
}

var dispatchSink [][]float64

// BenchmarkPoolDispatch is the pool's own cost — chunk planning, a
// goroutine and a hedge timer per chunk, JSON both ways — over an
// in-memory transport and three 2-slot workers whose evaluator costs
// nothing, at an active-learning batch (16) and a bootstrap (240).
func BenchmarkPoolDispatch(b *testing.B) {
	for _, n := range []int{16, 240} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			fleet, urls := newMemFleet(b, 3)
			pool, err := NewPool(urls, Options{Client: &http.Client{Transport: fleet}})
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			backend := pool.Backend("test", 2)
			cfgs := testConfigs(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				out, err := backend.EvaluateBatch(context.Background(), cfgs)
				if err != nil {
					b.Fatal(err)
				}
				dispatchSink = out
			}
			b.ReportMetric(float64(fleet.requests.Load())/float64(b.N), "requests/batch")
		})
	}
}
