package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/forest"
	"repro/internal/param"
	"repro/internal/sched"
	"repro/internal/sensor"
	"repro/internal/server"
	"repro/internal/slambench"
)

// config is what one workload run is given. The program under test sees none
// of it: only the RunRequests and core.Options made from it.
type config struct {
	seed    int64   // base seed; run i of a workload uses seed*1000 + i
	seconds float64 // nominal length of the timed phase on the reference sandbox
	small   bool    // smoke-test scale: smaller budgets and counts
	t       *tracer // nil: tracing off
	out     string  // where data directories and traces go
	golden  *golden // nil: no digests to hold fronts to
}

func (c *config) runSeed(i int) int64 { return c.seed*1000 + int64(i) }

// warmUpSeed is the seed of every warm-up run, whatever the base seed: what a
// set-up costs must not depend on which configurations a seed happens to
// draw (on kfusion_odroid ten base seeds read setup_s as 0.56 to 1.02 s with
// a derived warm-up seed, 0.57 to 0.62 s with this one).
const warmUpSeed = 999

// count turns the nominal length into a fixed amount of work: perSecond is
// the rate measured on the reference sandbox. Work is fixed, not time, so
// that two commits measure the same inputs and every seeded count repeats.
// small is the count at smoke-test scale.
func (c *config) count(perSecond float64, floor, small int) int {
	if c.small {
		return small
	}
	return max(floor, int(math.Round(perSecond*c.seconds)))
}

// engineWorkers is core.Options.Workers for every run.
func engineWorkers() int { return min(runtime.NumCPU(), 4) }

// budget is the exploration budget of one run, in the two forms the shapes
// need it.
type budget struct{ rs, iters, batch, poolCap, trees int }

func (b budget) scaled(c *config, div int) budget {
	if c.small {
		b.rs, b.batch, b.iters = max(b.rs/div, 8), max(b.batch/div, 4), min(b.iters, 2)
	}
	return b
}

func (b budget) options(p catalog.Problem, seed int64) core.Options {
	return core.Options{
		Objectives:    len(p.Objectives),
		RandomSamples: b.rs,
		MaxIterations: b.iters,
		MaxBatch:      b.batch,
		PoolCap:       b.poolCap,
		Forest:        forest.Options{Trees: b.trees},
		Seed:          seed,
		Workers:       engineWorkers(),
	}
}

func (b budget) request(p catalog.Problem, seed int64) server.RunRequest {
	return server.RunRequest{
		Problem:       p.Name,
		Seed:          seed,
		RandomSamples: b.rs,
		MaxIterations: b.iters,
		MaxBatch:      b.batch,
		PoolCap:       b.poolCap,
		Trees:         b.trees,
		Workers:       engineWorkers(),
	}
}

// instance is one set-up of a workload, warm-up run done, ready to be timed.
type instance interface {
	// measure is the timed phase: a fixed amount of seeded work. times are
	// the samples time_to_front_s is the median of, and wall is how long the
	// workload was busy, both in seconds.
	measure() (runs []runSample, times []float64, wall float64)
	// layerCounts adds what the layers' own counters say, read after measure.
	layerCounts(into map[string]float64)
	// verify runs the seed-independent checks and returns one line per failure.
	verify(runs []runSample) []string
	close()
}

// workload is one row of the benchmark. hvRef is the fixed reference box the
// fronts' hypervolume is taken against; probes are the direct layer timings
// a traced run adds.
type workload struct {
	name   string
	why    string
	hvRef  []float64
	setUp  func(c *config) (instance, error)
	probes []probe
	// notByteStable says why two runs of one seed may differ in their
	// fronts' bytes; such a workload keeps no golden digests.
	notByteStable string
}

var workloads = []workload{
	{
		name:   "inproc_pool192k",
		why:    "optimizer-bound: core predict/fit, forest and pareto do all the work on a 192000-point pool; no service layer runs",
		hvRef:  []float64{7, 7},
		setUp:  setUpPool192k,
		probes: []probe{probeForest, probePareto},
	},
	{
		name:          "kfusion_odroid",
		why:           "evaluator-bound, the paper's regime: each KFusion measurement is expensive and the 1.8M-point pool is re-subsampled every iteration",
		hvRef:         []float64{0.25, 1},
		setUp:         setUpKFusion,
		probes:        []probe{probeParam},
		notByteStable: "device.Work is a map and Model.SecondsPerFrame sums it in iteration order, so the runtime objective of one configuration differs in its last bit from one evaluation to the next",
	},
	{
		name:   "fleet3_slow_eval",
		why:    "dispatch-bound and CPU-idle: 3 workers with 2 slow device slots each, so worker.Pool chunking, hedging and stragglers set the time",
		hvRef:  []float64{7, 7},
		setUp:  setUpFleet3,
		probes: []probe{probeWire},
	},
	{
		name:   "durable_fleet3_tenants",
		why:    "service-layer-bound: many short runs of 2 tenants through handler, scheduler, coalescer, cache, pool, JSON wire and a journal fsync per batch",
		hvRef:  []float64{80, 20000},
		setUp:  setUpDurable,
		probes: []probe{probeJournalWrite, probeSched, probeCacheLookup},
	},
	{
		name:   "resume_replay",
		why:    "reads beside writes: a restarted daemon recovers journals and replays them through core with no evaluator calls",
		hvRef:  []float64{7, 7},
		setUp:  setUpResume,
		probes: nil, // its probes need the set-up's journals; see resume.probe
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pool192k is the BenchmarkALIteration grid (80×80×30, enumerable under the
// default PoolCap) with catalog.Synthetic's trade-off objectives, the third
// parameter trading one objective for the other.
func pool192k() catalog.Problem {
	return catalog.Problem{
		Name:        "pool192k",
		Description: "192000-point synthetic trade-off",
		Space: param.MustSpace(
			param.Grid("a", 0, 4, 80),
			param.Grid("b", 0, 4, 80),
			param.Grid("c", 0, 1, 30),
		),
		Eval: core.EvaluatorFunc(func(cfg param.Config) []float64 {
			a, b, c := cfg[0], cfg[1], cfg[2]
			return []float64{
				a + 0.5*math.Sin(3*b) + 0.5*c + 1.5,
				b + 0.5*math.Cos(2*a) + 0.5*(1-c) + 1.5,
			}
		}),
		Objectives: []string{"f0", "f1"},
	}
}

// inproc calls core.RunContext directly, one run after another.
type inproc struct {
	c    *config
	p    catalog.Problem
	eval *meter
	b    budget
	runs int
	// first is the first timed run's full result, kept for verify.
	first *core.Result
}

func (w *inproc) warmUp() error {
	b := w.b
	b.rs, b.batch, b.iters = max(b.rs/4, 8), max(b.batch/4, 4), 1
	s, _ := inprocRun(w.p, w.eval, b.options(w.p, warmUpSeed), 0, nil)
	if s.Err != "" {
		return errors.New(s.Err)
	}
	return nil
}

func (w *inproc) measure() ([]runSample, []float64, float64) {
	out := make([]runSample, w.runs)
	start := time.Now()
	for i := range out {
		w.c.t.setSoleRun(int64(i + 1))
		var res *core.Result
		out[i], res = inprocRun(w.p, w.eval, w.b.options(w.p, w.c.runSeed(i)), int64(i+1), w.c.t)
		if i == 0 {
			w.first = res
		}
	}
	w.c.t.setSoleRun(0)
	return out, runTimes(out), time.Since(start).Seconds()
}

// runTimes are the times to front of the runs that finished.
func runTimes(runs []runSample) []float64 {
	out := make([]float64, 0, len(runs))
	for _, s := range runs {
		if s.Err == "" {
			out = append(out, s.Wall)
		}
	}
	return out
}

func (w *inproc) layerCounts(into map[string]float64) {
	into["evaluator.calls"] = float64(w.eval.calls.Load())
	into["evaluator.busy_s"] = time.Duration(w.eval.busyNS.Load()).Seconds()
}

// verify checks the first run's front against that run's own samples with a
// plain dominance scan: the engine's front must be exactly the non-dominated
// set of what it measured.
func (w *inproc) verify(runs []runSample) []string {
	if w.first == nil {
		return nil // the run failed and is counted already
	}
	if msg := checkFront(w.first); msg != "" {
		return []string{fmt.Sprintf("seed %d: %s", runs[0].Seed, msg)}
	}
	return nil
}

func (w *inproc) close() {}

// checkFront verifies by brute force that res.Front is the non-dominated
// subset of res.Samples.
func checkFront(res *core.Result) string {
	if len(res.Front) == 0 {
		return "empty front"
	}
	onFront := make(map[int64]bool, len(res.Front))
	for _, p := range res.Front {
		onFront[p.ID] = true
	}
	dominates := func(a, b []float64) bool {
		strict := false
		for i := range a {
			if a[i] > b[i] {
				return false
			}
			strict = strict || a[i] < b[i]
		}
		return strict
	}
	for _, s := range res.Samples {
		dominated := false
		for _, o := range res.Samples {
			if dominates(o.Objs, s.Objs) {
				dominated = true
				break
			}
		}
		if dominated && onFront[s.Index] {
			return fmt.Sprintf("front point %d is dominated", s.Index)
		}
		if !dominated && !onFront[s.Index] {
			// An exact duplicate of a front point may be left off the front.
			dup := false
			for _, p := range res.Front {
				dup = dup || slices.Equal(p.Objs, s.Objs)
			}
			if !dup {
				return fmt.Sprintf("non-dominated sample %d is missing from the front", s.Index)
			}
		}
	}
	return ""
}

func setUpPool192k(c *config) (instance, error) {
	p := pool192k()
	w := &inproc{c: c, p: p, eval: &meter{inner: p.Eval, t: c.t},
		b:    budget{rs: 1000, iters: 6, batch: 300, trees: 32}.scaled(c, 8),
		runs: c.count(1.4, 8, 2)}
	return w, w.warmUp()
}

// kfusionDataset is a cut of slambench's "test" dataset: the same scene,
// noise and trajectory at 60×45 over 10 frames. One measurement costs 19 ms
// of CPU on average with a standard deviation as large (the compute-size
// ratio alone moves it ninefold), so a run's time depends on which
// configurations its seed draws. Only thousands of measurements per run of
// the benchmark average that out, and the test dataset's 90 ms apiece does
// not allow them.
func kfusionDataset(c *config) sensor.Options {
	o := slambench.DatasetOptions("test")
	o.Width, o.Height, o.Frames = 60, 45, 10
	if c.small {
		o.Frames = 4
	}
	return o
}

// setUpKFusion renders the dataset itself, not through CachedDataset, so
// that every set-up pays for it and setup_s shows it. The run count is the
// one that does not keep to the nominal length: a run takes about 1 s on the
// reference sandbox, so 2.4 of them a nominal second is two and a half times
// the length asked for. With fewer, which configurations the seed draws
// shows in the median.
func setUpKFusion(c *config) (instance, error) {
	kb := slambench.NewKFusionBench(sensor.Generate(kfusionDataset(c)))
	p := catalog.Problem{
		Name:        "kfusion/ODROID-XU3",
		Description: "KFusion on ODROID-XU3 (test dataset)",
		Space:       kb.Space(),
		Eval:        slambench.Evaluator(kb, device.ODROIDXU3(), slambench.RuntimeAccuracy),
		Objectives:  []string{"runtime_s_per_frame", "max_ate_m"},
	}
	w := &inproc{c: c, p: p, eval: &meter{inner: p.Eval, t: c.t},
		b:    budget{rs: 48, iters: 2, batch: 16, poolCap: 60000, trees: 16}.scaled(c, 8),
		runs: c.count(2.4, 2, 1)}
	return w, w.warmUp()
}

// served is a daemon with a worker fleet behind it, driven over HTTP.
type served struct {
	c     *config
	p     catalog.Problem
	b     budget
	fleet *fleet
	d     *daemon
	dir   string // data dir to remove on close; "" when not durable

	clients int
	perSeed int // runs per client
	cycle   int // seeds in a block; 0: a client never repeats a seed
	noCache bool
	// Simulated-device shape, for worker.fleet_efficiency.
	slots int
	delay time.Duration
}

func (w *served) request(client, r int) server.RunRequest {
	i := client*w.perSeed + r
	if w.cycle > 0 {
		// Every client walks the same seeds (cross-tenant duplicates), a block
		// of cycle fresh ones blockPasses times before the next block.
		block := w.cycle * blockPasses
		i = r/block*w.cycle + r%block%w.cycle
	}
	req := w.b.request(w.p, w.c.runSeed(i))
	req.NoCache = w.noCache
	req.Tenant = fmt.Sprintf("tenant-%d", client)
	return req
}

func (w *served) measure() ([]runSample, []float64, float64) {
	out := make([]runSample, w.clients*w.perSeed)
	start := time.Now()
	var wg sync.WaitGroup
	for cl := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range w.perSeed {
				run := int64(r*w.clients + cl + 1)
				if w.clients == 1 {
					w.c.t.setSoleRun(run)
				}
				out[run-1] = w.d.run(w.request(cl, r), run)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	w.c.t.setSoleRun(0)
	return out, runTimes(out), wall
}

// blockPasses is how many times a client walks a block's seeds: the first
// pass is cold, the later ones meet the cache.
const blockPasses = 4

// blockRuns is how many consecutive runs repeat the workload's mix of cold
// and cached inputs once; time_to_front_tail_s is taken per block.
func (w *served) blockRuns() int { return w.clients * w.cycle * blockPasses }

// device is the simulated device every worker of the fleet stands for.
func (w *served) device() (slots int, delay time.Duration) { return 3 * w.slots, w.delay }

func (w *served) layerCounts(into map[string]float64) {
	calls, busy := w.fleet.evaluatorCalls()
	into["evaluator.calls"] = float64(calls)
	into["evaluator.busy_s"] = busy.Seconds()
	st := w.d.mgr.Stats()
	into["worker.configs"] = float64(st.PoolBatchConfigs)
	for _, ws := range st.Workers {
		into["worker.requests"] += float64(ws.Requests)
		into["worker.hedges"] += float64(ws.Hedges)
		into["worker.failures"] += float64(ws.Failures)
		into["worker.breaker_trips"] += float64(ws.Trips)
	}
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		into["core.cache_hit_share"] = float64(st.CacheHits) / float64(lookups)
		into["core.cache_coalesce_hits"] = float64(st.CacheCoalesceHits)
	}
	if s := st.Sched; s != nil {
		into["sched.queue_wait_p50_ms"] = s.WaitP50MS
		into["sched.queue_wait_p99_ms"] = s.WaitP99MS
		into["sched.rejected"] = float64(s.Rejected)
	}
	if co := st.Coalesce; co != nil && co.Calls > 0 {
		into["sched.coalesce_merged_share"] = float64(co.MergedCalls) / float64(co.Calls)
		into["sched.coalesce_dedup_share"] = float64(co.Deduped) / float64(co.Configs)
	}
	if w.dir != "" {
		var appends, size float64
		journals, _ := filepath.Glob(filepath.Join(w.dir, "runs", "*", "journal.jsonl"))
		for _, j := range journals {
			if data, err := os.ReadFile(j); err == nil {
				size += float64(len(data))
				appends += float64(bytes.Count(data, []byte("\n")))
			}
		}
		if n := float64(len(journals)); n > 0 {
			into["journal.appends_per_run"] = appends / n
			into["journal.bytes_per_run"] = size / n
		}
	}
}

// verify holds the daemon to the repo's local == distributed guarantee: the
// first two runs' fronts must be byte-identical to an in-process core.Run of
// the same budgets.
func (w *served) verify(runs []runSample) []string {
	var bad []string
	for _, s := range runs[:min(2, len(runs))] {
		if s.Err != "" {
			continue // already counted as failed
		}
		local, _ := inprocRun(w.p, w.p.Eval, w.b.options(w.p, s.Seed), 0, nil)
		if local.Err != "" {
			bad = append(bad, fmt.Sprintf("seed %d: in-process reference: %s", s.Seed, local.Err))
		} else if string(local.Front) != string(s.Front) {
			bad = append(bad, fmt.Sprintf("seed %d: daemon front differs from the in-process front", s.Seed))
		}
	}
	return bad
}

func (w *served) close() {
	if w.d != nil {
		w.d.close()
	}
	if w.fleet != nil {
		w.fleet.close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// start brings up fleet and daemon and does the warm-up run, which connects
// the listeners and fills the pool's latency history.
func (w *served) start(cfg server.Config) (instance, error) {
	var err error
	if w.fleet, err = startFleet(3, w.p, w.slots, w.delay, w.c.t); err != nil {
		return nil, err
	}
	cfg.EvalPool = w.fleet.pool
	if w.d, err = startDaemon(cfg, w.p, w.c.t); err != nil {
		w.close()
		return nil, err
	}
	warm := w.b.request(w.p, warmUpSeed)
	warm.NoCache = w.noCache
	warm.Tenant = "warm-up"
	if s := w.d.run(warm, 0); s.Err != "" {
		w.close()
		return nil, errors.New("warm-up run: " + s.Err)
	}
	return w, nil
}

func setUpFleet3(c *config) (instance, error) {
	w := &served{c: c, p: catalog.Synthetic(),
		b:       budget{rs: 240, iters: 4, batch: 96, trees: 16}.scaled(c, 4),
		clients: 1, perSeed: c.count(2.2, 8, 2), noCache: true,
		slots: 2, delay: 5 * time.Millisecond}
	return w.start(server.Config{})
}

func setUpDurable(c *config) (instance, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	p, err := catalog.FromSpecData(data)
	if err != nil {
		return nil, err
	}
	dir, err := dataDir(c)
	if err != nil {
		return nil, err
	}
	// A block is 15 seeds × 4 passes × 2 tenants = 120 runs, which leaves
	// twelve samples beyond a block's p90, and takes about 3.3 s on the
	// reference sandbox: five blocks at the default length run for 16 s, not
	// 10, so that the median over blocks has five values to stand on.
	w := &served{c: c, p: p, dir: dir,
		b:       budget{rs: 100, iters: 4, batch: 40, poolCap: 5000, trees: 16}.scaled(c, 4),
		clients: 2, cycle: 15}
	if c.small {
		w.cycle = 2
	}
	w.perSeed = c.count(0.5, 1, 1) * w.cycle * blockPasses
	return w.start(server.Config{
		DataDir: dir,
		Sched: &sched.Config{
			MaxRunning: 2,
			Quota:      sched.TenantQuota{MaxRunning: 1, MaxQueued: 64},
		},
	})
}

// dataDir makes a fresh directory under the benchmark's output directory,
// which is on the checkout's disk: a journal fsync there costs what it
// costs the daemon.
func dataDir(c *config) (string, error) {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.out, "data-")
}
