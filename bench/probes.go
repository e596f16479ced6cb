package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/journal"
	"repro/internal/param"
	"repro/internal/pareto"
	"repro/internal/sched"
	"repro/internal/sensor"
	"repro/internal/slambench"
)

// A probe times direct calls into one layer's public functions, with the
// shapes its workload produces, and adds per-layer metrics. Probes run only
// in a traced run, after the workload, and never touch its numbers.
type probe func(c *config, ps *probeSet)

// probeSet collects probe results and the first error.
type probeSet struct {
	into  map[string]float64
	err   error
	small bool // smoke-test scale: one call per probe
}

func (ps *probeSet) fail(err error) {
	if ps.err == nil {
		ps.err = err
	}
}

// time records under name the median duration of n calls of f, in units of
// 1/perSecond seconds. It stops at the first call that fails.
func (ps *probeSet) time(name string, n int, perSecond float64, f func() error) {
	if ps.small {
		n = 1
	}
	times := make([]float64, n)
	for i := range times {
		start := time.Now()
		if err := f(); err != nil {
			ps.fail(fmt.Errorf("%s: %w", name, err))
			return
		}
		times[i] = time.Since(start).Seconds()
	}
	ps.into[name] = median(times) * perSecond
}

// probeForest times what core's fit and predict phases call on
// inproc_pool192k: a refit on 1000 rows and a flat prediction of the pool.
func probeForest(c *config, ps *probeSet) {
	p := pool192k()
	dim := p.Space.Dim()
	rows := make([][]float64, 1000)
	y := make([]float64, len(rows))
	for i, idx := range p.Space.SampleIndices(rand.New(rand.NewSource(c.seed)), len(rows)) {
		cfg := p.Space.AtIndex(idx)
		rows[i] = p.Space.EncodeNew(cfg)
		y[i] = p.Eval.Evaluate(cfg)[0]
	}
	cols, err := forest.ColumnsFromRows(rows)
	if err != nil {
		ps.fail(err)
		return
	}
	var f *forest.Forest
	ps.time("forest.refit_ms", 9, 1e3, func() error {
		f, err = forest.Refit(cols, y, forest.Options{Trees: 32, Seed: c.seed})
		return err
	})
	if f == nil {
		return
	}
	n := int(p.Space.Size())
	flat := make([]float64, n*dim)
	cfg := make(param.Config, dim)
	for i := range n {
		p.Space.AtIndexInto(int64(i), cfg)
		p.Space.Encode(cfg, flat[i*dim:(i+1)*dim])
	}
	out := make([]float64, n)
	ps.time("forest.predict_ns_per_row", 5, 1e9/float64(n), func() error {
		f.PredictFlat(flat, dim, out)
		return nil
	})
}

// probePareto times the predicted-front filter over a pool-sized point set
// and the hypervolume of the front it leaves.
func probePareto(c *config, ps *probeSet) {
	p := pool192k()
	n := int(p.Space.Size())
	objs := make([]float64, 2*n)
	cfg := make(param.Config, p.Space.Dim())
	for i := range n {
		p.Space.AtIndexInto(int64(i), cfg)
		copy(objs[2*i:], p.Eval.Evaluate(cfg))
	}
	pts := make([]pareto.Point, n)
	var front []pareto.Point
	ps.time("pareto.front_ms", 5, 1e3, func() error {
		for i := range pts { // FrontInPlace reorders its input
			pts[i] = pareto.Point{ID: int64(i), Objs: objs[2*i : 2*i+2]}
		}
		front = pareto.FrontInPlace(pts)
		return nil
	})
	ps.time("pareto.hypervolume_us", 99, 1e6, func() error {
		if pareto.Hypervolume(front, []float64{7, 7}) <= 0 {
			return errors.New("empty hypervolume")
		}
		return nil
	})
}

// probeParam times the subsampled-pool path kfusion_odroid takes every
// iteration: draw 60000 of 1.8M indices, decode and encode them. It also
// times the dataset build that dominates that workload's set-up.
func probeParam(c *config, ps *probeSet) {
	space := slambench.KFusionSpace()
	var idx []int64
	seed := c.seed
	ps.time("param.sample_ms", 5, 1e3, func() error {
		seed++
		idx = space.SampleIndices(rand.New(rand.NewSource(seed)), 60000)
		return nil
	})
	cfg := make(param.Config, space.Dim())
	row := make([]float64, space.Dim())
	ps.time("param.encode_ns_per_row", 5, 1e9/float64(len(idx)), func() error {
		for _, i := range idx {
			space.AtIndexInto(i, cfg)
			space.Encode(cfg, row)
		}
		return nil
	})
	ps.time("slambench.dataset_s", 1, 1, func() error {
		if len(sensor.Generate(kfusionDataset(c)).Frames) == 0 {
			return errors.New("empty dataset")
		}
		return nil
	})
}

// probeWire measures the cost of the pool and the JSON wire alone:
// EvaluateBatch of 10², 10³ and 10⁴ configurations against three workers
// whose evaluator costs nothing.
func probeWire(c *config, ps *probeSet) {
	p := catalog.Synthetic()
	p.Eval = core.EvaluatorFunc(func(param.Config) []float64 { return []float64{1, 2} })
	f, err := startFleet(3, p, 0, 0, nil)
	if err != nil {
		ps.fail(err)
		return
	}
	defer f.close()
	backend := f.pool.Backend(p.Name, len(p.Objectives))
	rng := rand.New(rand.NewSource(c.seed))
	for _, n := range []int{100, 1000, 10000} {
		cfgs := make([]param.Config, n)
		for i := range cfgs {
			cfgs[i] = p.Space.AtIndex(rng.Int63n(p.Space.Size()))
		}
		ps.time("worker.wire_us_per_config_"+strconv.Itoa(n), 7, 1e6/float64(n), func() error {
			_, err := backend.EvaluateBatch(context.Background(), cfgs)
			return err
		})
	}
}

// probeJournalWrite times the write side of durability: one fsync'd batch
// append of the size durable_fleet3_tenants journals, and one atomic JSON
// write of the same document. It also times loading that workload's
// problem spec.
func probeJournalWrite(c *config, ps *probeSet) {
	dir, err := dataDir(c)
	if err != nil {
		ps.fail(err)
		return
	}
	defer os.RemoveAll(dir)
	w, err := journal.Create(filepath.Join(dir, "journal.jsonl"), journal.Header{RunID: "probe", Problem: "probe", Seed: c.seed})
	if err != nil {
		ps.fail(err)
		return
	}
	defer w.Close()
	batch := journal.Batch{Iteration: 1, Active: true, Samples: make([]journal.SampleRecord, 40)}
	for i := range batch.Samples {
		batch.Samples[i] = journal.SampleRecord{Index: int64(i) * 977, Objs: []float64{12.345678901234, 4321.0987654321}}
	}
	ps.time("journal.append_ms_per_batch", 100, 1e3, func() error { return w.Batch(batch) })
	ps.time("journal.atomic_write_ms", 30, 1e3, func() error {
		return journal.WriteJSONAtomic(filepath.Join(dir, "result.json"), batch)
	})

	data, err := os.ReadFile(specPath)
	if err != nil {
		ps.fail(err)
		return
	}
	ps.time("catalog.from_spec_ms", 9, 1e3, func() error {
		_, err := catalog.FromSpecData(data)
		return err
	})
}

type nopBackend struct{}

func (nopBackend) EvaluateBatch(_ context.Context, cfgs []param.Config) ([][]float64, error) {
	out := make([][]float64, len(cfgs))
	for i := range out {
		out[i] = []float64{1, 2}
	}
	return out, nil
}

// probeSched times admission on an idle scheduler, Submit to the start
// callback, and one Coalescer.EvaluateBatch over a backend that does
// nothing, with merging off so no window is waited for.
func probeSched(c *config, ps *probeSet) {
	s := sched.New(sched.Config{MaxRunning: 2})
	defer s.Close()
	ps.time("sched.admit_us", 1001, 1e6, func() error {
		t, err := s.Submit("probe", 0, func(*sched.Ticket) {}, func(*sched.Ticket) {})
		if err != nil {
			return err
		}
		s.Done(t)
		return nil
	})

	p := catalog.Synthetic()
	co := sched.NewCoalescer(p.Space, nopBackend{}, -1)
	cfgs := make([]param.Config, 40)
	for i := range cfgs {
		cfgs[i] = p.Space.AtIndex(int64(i) * 101)
	}
	ps.time("sched.coalesce_call_us", 1001, 1e6, func() error {
		_, err := co.EvaluateBatch(context.Background(), cfgs)
		return err
	})
}

// probeCacheLookup runs one seed twice on a shared EvalCache: the second
// run's evaluation phases are lookups only.
func probeCacheLookup(c *config, ps *probeSet) {
	p := pool192k()
	opts := budget{rs: 1000, iters: 2, batch: 300, trees: 16}.options(p, c.runSeed(0))
	opts.Cache = core.NewEvalCache()
	first, _ := inprocRun(p, p.Eval, opts, 0, nil)
	second, _ := inprocRun(p, p.Eval, opts, 0, nil)
	if first.Err != "" || second.Err != "" || second.CacheMisses != 0 || second.CacheHits == 0 {
		ps.fail(errors.New("core.cache_lookup_us: second run on a warmed cache was not served from it"))
		return
	}
	ps.into["core.cache_lookup_us"] = second.Eval * 1e6 / float64(second.CacheHits)
}
