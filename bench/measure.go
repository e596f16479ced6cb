package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/pareto"
)

// setUps is how many times a workload is set up in one process: set-up time
// is reported as the median, so that one slow start does not read as a
// regression. The first is the one that is timed; the others come after the
// timed phase and are closed unused. Were they all to come first, the median
// would be of set-ups in a process and on a disk that had been idle, which on
// durable_fleet3_tenants (a dozen fsyncs in 50 ms) read 0.055 s straight
// after another durable run and 0.07 to 0.08 s after anything else.
const setUps = 3

// pass is one timed phase of a workload.
type pass struct {
	runs  []runSample
	times []float64 // the samples time_to_front_s is the median of
	wall  float64   // seconds the workload was busy, as its instance reports it
	cpu   float64   // user+system CPU seconds of the process over the phase

	// Runtime deltas over the phase; what a traced pass adds to the above.
	allocBytes, allocs uint64
	gcPause            time.Duration
	goroutinesPeak     int
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // not on this platform; cpu_s then reads 0 and fails the never-zero rule loudly
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			var kb float64
			fmt.Sscan(string(rest), &kb)
			return kb / 1024
		}
	}
	return 0
}

// timed runs an instance's timed phase. watch adds the runtime deltas, which
// cost two stop-the-world reads and a sampling goroutine, so only a traced
// pass asks for them.
func timed(inst instance, watch bool) pass {
	var p pass
	var before, after runtime.MemStats
	stop, sampled := make(chan struct{}), make(chan struct{})
	if watch {
		runtime.ReadMemStats(&before)
		go func() {
			defer close(sampled)
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				p.goroutinesPeak = max(p.goroutinesPeak, runtime.NumGoroutine())
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
	}
	cpu := cpuSeconds()
	p.runs, p.times, p.wall = inst.measure()
	p.cpu = cpuSeconds() - cpu
	if watch {
		close(stop)
		<-sampled
		runtime.ReadMemStats(&after)
		p.allocBytes = after.TotalAlloc - before.TotalAlloc
		p.allocs = after.Mallocs - before.Mallocs
		p.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	}
	return p
}

// runWorkload sets a workload up, times it, checks every front, and returns
// the result with the end-to-end metrics (tracing off) or the per-layer
// metrics (tracing on).
//
// A traced run splits its length between two passes over the same inputs,
// each on a fresh set-up: one with tracing off, which is the reference, and
// one with tracing on. Their difference is the tracing overhead.
func runWorkload(w workload, c *config) (*workloadResult, error) {
	res := &workloadResult{
		Workload: w.name, Seed: c.seed, Seconds: c.seconds, Trace: c.t != nil,
		Env: readEnvironment(),
	}
	goroutines := runtime.NumGoroutine()
	var setupTimes []float64
	setUp := func(t *tracer, seconds float64) (instance, error) {
		ci := *c
		ci.t, ci.seconds = t, seconds
		start := time.Now()
		inst, err := w.setUp(&ci)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		return inst, nil
	}
	var (
		inst      instance
		reference pass
		err       error
	)
	if c.t != nil {
		if inst, err = setUp(nil, c.seconds/2); err != nil {
			return nil, err
		}
		reference = timed(inst, false)
		inst.close()
		if inst, err = setUp(c.t, c.seconds/2); err != nil {
			return nil, err
		}
		c.t.discard()
	} else {
		if inst, err = setUp(nil, c.seconds); err != nil {
			return nil, err
		}
	}
	p := timed(inst, c.t != nil)
	rss := peakRSSMB()
	counts := map[string]float64{}
	inst.layerCounts(counts)

	// Correctness: a run that failed, a front that does not match its golden
	// digest, and every structural check that fails each count as one
	// failed run.
	res.Attempted = len(p.runs)
	res.Digests = map[string]string{}
	want := c.golden.digestsFor(w.name, c.seed)
	var hv []float64
	for _, s := range p.runs {
		if s.Err != "" {
			res.Failures = append(res.Failures, fmt.Sprintf("seed %d: %s", s.Seed, s.Err))
			continue
		}
		if w.notByteStable == "" {
			sum := sha256.Sum256(s.Front)
			digest, key := hex.EncodeToString(sum[:]), strconv.FormatInt(s.Seed, 10)
			if seen, ok := res.Digests[key]; ok && seen != digest {
				res.Failures = append(res.Failures, fmt.Sprintf("seed %d: two runs of one seed gave different fronts", s.Seed))
			}
			res.Digests[key] = digest
			if g, ok := want[key]; ok && g != digest {
				res.Failures = append(res.Failures, fmt.Sprintf("seed %d: front digest %s, golden %s", s.Seed, digest[:12], g[:min(12, len(g))]))
			}
		}
		v, err := frontHypervolume(s.Front, w.hvRef)
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("seed %d: %v", s.Seed, err))
			continue
		}
		hv = append(hv, v)
	}
	res.Failures = append(res.Failures, inst.verify(p.runs)...)
	if c.t != nil {
		if err := runProbes(w, c, inst, counts); err != nil {
			res.Failures = append(res.Failures, "probe: "+err.Error())
		}
	}
	inst.close()
	if c.t == nil {
		for range setUps - 1 {
			again, err := setUp(nil, c.seconds)
			if err != nil {
				return nil, err
			}
			again.close()
		}
	}
	if leaked := waitForGoroutines(goroutines); leaked > 0 {
		res.Failures = append(res.Failures, fmt.Sprintf("%d goroutines still running after the workload closed", leaked))
	}
	res.Failed = min(len(res.Failures), res.Attempted)
	res.Correct = len(res.Failures) == 0

	res.Samples = p.times
	if b, ok := inst.(interface{ blockRuns() int }); ok {
		res.Block = b.blockRuns()
	}
	var tail float64
	tail, res.Percentile, _ = blockTail(res.Samples, res.Block)
	if len(res.Samples) == 0 || len(hv) == 0 {
		return res, errors.New("no run finished: " + fmt.Sprint(res.Failures))
	}
	if c.t == nil {
		samples := 0
		for _, s := range p.runs {
			samples += s.Samples
		}
		res.Metrics = map[string]metricValue{
			"time_to_front_s":      {median(res.Samples), "s"},
			"time_to_front_tail_s": {tail, "s"},
			"runs_per_s":           {float64(len(p.runs)) / p.wall, "1/s"},
			"evals_per_s":          {float64(samples) / p.wall, "1/s"},
			"cpu_s_per_run":        {p.cpu / float64(len(p.runs)), "s"},
			"peak_rss_mb":          {rss, "MB"},
			"hypervolume_mean":     {sum(hv) / float64(len(hv)), "ratio"},
			"setup_s":              {median(setupTimes), "s"},
		}
		return res, nil
	}
	spans := c.t.snapshot()
	if err := writeChromeTrace(filepath.Join(c.out, "trace_"+w.name+".json"), spans); err != nil {
		return nil, err
	}
	res.Metrics = layerMetrics(inst, p, reference, counts, spans, sum(hv)/float64(len(hv)))
	return res, nil
}

// waitForGoroutines gives goroutines that were told to stop a moment to do
// so, and returns how many more than before are still there.
func waitForGoroutines(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-before, 0)
}

// frontHypervolume reads a front as GET /runs/{id}/front serves it and
// returns the share of the reference box it dominates. The box is fixed per
// problem, so the number compares across runs, seeds and commits.
func frontHypervolume(front []byte, ref []float64) (float64, error) {
	var sf core.StoredFront
	if err := json.Unmarshal(front, &sf); err != nil {
		return 0, fmt.Errorf("front: %w", err)
	}
	if len(sf.Points) == 0 {
		return 0, errors.New("front: no points")
	}
	pts := make([]pareto.Point, len(sf.Points))
	box := 1.0
	for _, r := range ref {
		box *= r
	}
	for i, p := range sf.Points {
		if len(p.Objs) != len(ref) {
			return 0, fmt.Errorf("front: point %d has %d objectives, want %d", p.Index, len(p.Objs), len(ref))
		}
		pts[i] = pareto.Point{ID: p.Index, Objs: p.Objs}
	}
	return pareto.Hypervolume(pts, ref) / box, nil
}

// layerMetrics turns one traced pass into the per-layer metrics. Every
// metric is reported on every workload; one that reads 0 belongs to a layer
// the workload does not exercise.
func layerMetrics(inst instance, p, reference pass, counts map[string]float64, spans []span, hv float64) map[string]metricValue {
	m := map[string]metricValue{}
	for _, d := range layerMetricDefs {
		m[d.name] = metricValue{0, d.unit}
	}
	set := func(name string, v float64) {
		mv, ok := m[name]
		if !ok {
			panic("bench: layer metric " + name + " is not declared in layerMetricDefs")
		}
		mv.Value = v
		m[name] = mv
	}
	for name, v := range counts {
		set(name, v)
	}
	runs := float64(len(p.runs))
	var fit, encode, predict, eval, wall, configs float64
	var post, first, doneToFront, status []float64
	for _, s := range p.runs {
		fit, encode, predict, eval = fit+s.Fit, encode+s.Encode, predict+s.Predict, eval+s.Eval
		wall += s.Wall
		configs += float64(s.Samples)
		if s.Post > 0 {
			post, first, doneToFront = append(post, s.Post*1e3), append(first, s.FirstEvent*1e3), append(doneToFront, s.DoneToFront*1e3)
			status = append(status, float64(s.StatusBytes))
		}
	}
	set("core.fit_s", fit/runs)
	set("core.encode_s", encode/runs)
	set("core.predict_s", predict/runs)
	set("core.eval_s", eval/runs)
	queued := counts["sched.queue_wait_p50_ms"] / 1e3 * runs
	set("core.residual_share", (wall-queued-fit-encode-predict-eval)/wall)
	set("core.alloc_mb_per_run", float64(p.allocBytes)/(1<<20)/runs)
	set("core.allocs_per_run", float64(p.allocs)/runs)
	if calls := counts["evaluator.calls"]; calls > 0 {
		set("evaluator.ms_per_call", counts["evaluator.busy_s"]*1e3/calls)
		if sent := counts["worker.configs"]; sent > 0 {
			set("worker.wasted_eval_share", max(calls-sent, 0)/calls)
		}
	}
	if len(post) > 0 {
		set("server.post_runs_ms_p50", median(post))
		set("server.first_event_ms_p50", median(first))
		set("server.done_to_front_ms_p50", median(doneToFront))
		set("server.status_bytes", median(status))
	}

	// From the spans: what the wrappers saw at each layer's entry points.
	var request, serve []float64
	var wire, handlerBusy float64
	for _, s := range spans {
		switch {
		case s.Layer == "worker" && s.Name == poolRequestSpan:
			request = append(request, s.seconds()*1e3)
			wire += float64(s.Bytes)
		case s.Layer == "worker":
			serve = append(serve, s.seconds()*1e3)
		case s.Layer == "server" && s.Name != eventsRoute:
			handlerBusy += s.seconds() // the events stream waits for the run; it is not busy
		}
	}
	if len(request) > 0 && len(serve) > 0 {
		set("worker.request_ms_p50", median(request))
		set("worker.serve_ms_p50", median(serve))
		set("worker.bytes_per_config", wire/max(counts["worker.configs"], 1))
	}
	set("server.handler_busy_s", handlerBusy)
	if imb := chunkImbalance(spans); imb > 0 {
		set("worker.chunk_imbalance", imb)
	}
	if dev, ok := inst.(interface {
		device() (slots int, delay time.Duration)
	}); ok && eval > 0 {
		if slots, delay := dev.device(); slots > 0 {
			set("worker.fleet_efficiency", configs*delay.Seconds()/float64(slots)/eval)
			set("worker.device_idle_share", 1-counts["evaluator.busy_s"]/(float64(slots)*eval))
		}
	}
	self, traced := selfByLayer(spans)
	for _, layer := range layers {
		set("self."+layer+"_share", self[layer]/max(traced, 1e-9))
	}
	set("proc.gc_pause_ms", p.gcPause.Seconds()*1e3)
	set("proc.goroutines_peak", float64(p.goroutinesPeak))
	ref := median(reference.times)
	set("trace.overhead_share", (median(p.times)-ref)/ref)
	set("trace.spans", float64(len(spans)))
	set("quality.hypervolume_mean", hv)
	return m
}

// chunkImbalance is, averaged over evaluation batches, the largest number of
// configurations one worker measured divided by the mean over workers. A
// batch is the window of one core evaluation phase.
func chunkImbalance(spans []span) float64 {
	type window struct {
		lo, hi int64
		n      map[int]int
	}
	var batches []window
	for _, s := range spans {
		if s.Layer == "core" && s.Name == "eval" {
			batches = append(batches, window{s.StartUS, s.EndUS, map[int]int{}})
		}
	}
	workers := 0
	for _, s := range spans {
		if s.Layer != "evaluator" || s.Worker == 0 {
			continue
		}
		workers = max(workers, s.Worker)
		for _, b := range batches {
			if s.StartUS >= b.lo && s.StartUS < b.hi {
				b.n[s.Worker]++
			}
		}
	}
	var total float64
	counted := 0
	for _, b := range batches {
		most, all := 0, 0
		for _, n := range b.n {
			most, all = max(most, n), all+n
		}
		if all > 0 {
			total += float64(most) * float64(workers) / float64(all)
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// runProbes runs the workload's probes and, for instances that have probes
// of their own on what set-up left, those.
func runProbes(w workload, c *config, inst instance, into map[string]float64) error {
	ps := &probeSet{into: into, small: c.small}
	for _, probe := range w.probes {
		probe(c, ps)
	}
	if own, ok := inst.(interface{ probe(*probeSet) }); ok {
		own.probe(ps)
	}
	return ps.err
}

// layerMetricDef declares one per-layer metric; BENCHMARK.json lists the
// same names and units.
type layerMetricDef struct{ name, unit string }

var layerMetricDefs = []layerMetricDef{
	{"core.fit_s", "s"}, {"core.encode_s", "s"}, {"core.predict_s", "s"}, {"core.eval_s", "s"},
	{"core.residual_share", "ratio"},
	{"core.alloc_mb_per_run", "MB"}, {"core.allocs_per_run", "count"},
	{"core.cache_hit_share", "ratio"}, {"core.cache_coalesce_hits", "count"},
	{"core.cache_lookup_us", "us"}, {"core.replay_s", "s"},
	{"forest.refit_ms", "ms"}, {"forest.predict_ns_per_row", "ns"},
	{"pareto.front_ms", "ms"}, {"pareto.hypervolume_us", "us"},
	{"param.sample_ms", "ms"}, {"param.encode_ns_per_row", "ns"},
	{"evaluator.calls", "count"}, {"evaluator.busy_s", "s"}, {"evaluator.ms_per_call", "ms"},
	{"slambench.dataset_s", "s"}, {"catalog.from_spec_ms", "ms"},
	{"worker.fleet_efficiency", "ratio"}, {"worker.wasted_eval_share", "ratio"},
	{"worker.chunk_imbalance", "ratio"}, {"worker.device_idle_share", "ratio"},
	{"worker.requests", "count"}, {"worker.configs", "count"}, {"worker.hedges", "count"},
	{"worker.failures", "count"}, {"worker.breaker_trips", "count"},
	{"worker.request_ms_p50", "ms"}, {"worker.serve_ms_p50", "ms"}, {"worker.bytes_per_config", "bytes"},
	{"worker.wire_us_per_config_100", "us"}, {"worker.wire_us_per_config_1000", "us"}, {"worker.wire_us_per_config_10000", "us"},
	{"journal.append_ms_per_batch", "ms"}, {"journal.atomic_write_ms", "ms"},
	{"journal.appends_per_run", "count"}, {"journal.bytes_per_run", "bytes"}, {"journal.recover_ms", "ms"},
	{"sched.admit_us", "us"}, {"sched.queue_wait_p50_ms", "ms"}, {"sched.queue_wait_p99_ms", "ms"}, {"sched.rejected", "count"},
	{"sched.coalesce_merged_share", "ratio"}, {"sched.coalesce_dedup_share", "ratio"}, {"sched.coalesce_call_us", "us"},
	{"server.post_runs_ms_p50", "ms"}, {"server.first_event_ms_p50", "ms"}, {"server.done_to_front_ms_p50", "ms"},
	{"server.handler_busy_s", "s"}, {"server.status_bytes", "bytes"}, {"server.restore_ms", "ms"},
	{"self.bench_share", "ratio"}, {"self.server_share", "ratio"}, {"self.core_share", "ratio"},
	{"self.worker_share", "ratio"}, {"self.evaluator_share", "ratio"},
	{"proc.gc_pause_ms", "ms"}, {"proc.goroutines_peak", "count"},
	{"trace.overhead_share", "ratio"}, {"trace.spans", "count"},
	{"quality.hypervolume_mean", "ratio"},
}
