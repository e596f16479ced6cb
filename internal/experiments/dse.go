package experiments

import (
	"context"
	"fmt"
	"io"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pareto"
	"repro/internal/plot"
	"repro/internal/slambench"
)

// DSEResult is one design-space exploration (the content of one Fig. 3/4
// panel): the random-sampling baseline, the active-learning result, and the
// default-configuration reference point.
type DSEResult struct {
	Benchmark  string
	Platform   string
	Objectives slambench.Objectives

	Run *core.Result

	// DefaultRuntime/DefaultAccuracy locate the expert default.
	DefaultRuntime  float64
	DefaultAccuracy float64
	DefaultMetrics  slambench.Metrics

	// ValidRandom and ValidAL count configurations under the 5 cm
	// accuracy limit found by each phase (§IV-C: 333 random vs 642 new AL
	// points on the ODROID).
	ValidRandom int
	ValidAL     int

	// FrontSize is the number of measured Pareto points (§IV-C: 36 on the
	// ODROID, 167 on the ASUS).
	FrontSize int

	// BestSpeed and BestAccuracy are the front extremes; BestValidSpeed
	// is the fastest configuration under the accuracy limit (the §IV-B
	// "29.09 FPS within 4.47 cm" claim and the crowd-sourcing config).
	BestSpeed      core.Sample
	BestAccuracy   core.Sample
	BestValidSpeed *core.Sample

	// SpeedupVsDefault is DefaultRuntime / BestValidSpeed runtime (§IV-C:
	// 6.35× on the ODROID; 1.52× for ElasticFusion on the GTX).
	SpeedupVsDefault float64
	// AccuracyGainVsDefault is DefaultAccuracy / BestAccuracy accuracy
	// (Table I: 2.07× for ElasticFusion).
	AccuracyGainVsDefault float64

	// FitTime/EncodeTime/PredictTime/EvalTime total the engine's per-phase
	// wall-clock over the whole exploration (bootstrap included), splitting
	// optimizer-side compute from hardware evaluation.
	FitTime     time.Duration
	EncodeTime  time.Duration
	PredictTime time.Duration
	EvalTime    time.Duration
}

// RunDSE is the one implementation of a SLAM design-space exploration:
// Algorithm 1 over bench's space on dev with the given objectives and engine
// budget, then the expert default's measurement and the figure statistics.
// It sets budget.Objectives itself and passes each event on to
// budget.OnIteration, if set, after adding its timings up. When ctx is
// cancelled mid-run it returns what the interrupted exploration did find
// together with the context's error, so a caller can still report it.
func RunDSE(ctx context.Context, bench slambench.Benchmark, dev device.Model, objs slambench.Objectives, budget core.Options) (*DSEResult, error) {
	budget.Objectives = objs.Count()
	// Collect per-phase timings over every event, bootstrap included (the
	// bootstrap stats are streamed but not recorded in Result.Iterations).
	var fitT, encT, predT, evalT time.Duration
	next := budget.OnIteration
	budget.OnIteration = func(s core.IterationStats) {
		fitT += s.FitTime
		encT += s.EncodeTime
		predT += s.PredictTime
		evalT += s.EvalTime
		if next != nil {
			next(s)
		}
	}
	run, runErr := core.RunContext(ctx, bench.Space(), slambench.Evaluator(bench, dev, objs), budget)
	if run == nil {
		return nil, runErr
	}

	defM, err := bench.Evaluate(bench.DefaultConfig(), dev)
	if err != nil {
		return nil, err
	}

	res := &DSEResult{
		Benchmark:       bench.Name(),
		Platform:        dev.Name,
		Objectives:      objs,
		Run:             run,
		DefaultMetrics:  defM,
		DefaultRuntime:  defM.SecPerFrame,
		DefaultAccuracy: bench.Accuracy(defM),
		FrontSize:       len(run.Front),
		FitTime:         fitT,
		EncodeTime:      encT,
		PredictTime:     predT,
		EvalTime:        evalT,
	}
	for _, s := range run.Samples {
		if s.Objs[1] < slambench.AccuracyLimit {
			if s.ActiveLearning {
				res.ValidAL++
			} else {
				res.ValidRandom++
			}
		}
	}
	if best, ok := pareto.BestBy(run.Front, 0); ok {
		if s, found := run.ByIndex(best.ID); found {
			res.BestSpeed = s
		}
	}
	if best, ok := pareto.BestBy(run.Front, 1); ok {
		if s, found := run.ByIndex(best.ID); found {
			res.BestAccuracy = s
		}
	}
	if best, ok := pareto.BestUnderConstraint(run.Front, 0, 1, slambench.AccuracyLimit); ok {
		if s, found := run.ByIndex(best.ID); found {
			res.BestValidSpeed = &s
			res.SpeedupVsDefault = res.DefaultRuntime / s.Objs[0]
		}
	}
	if len(res.BestAccuracy.Objs) > 0 && res.BestAccuracy.Objs[1] > 0 {
		res.AccuracyGainVsDefault = res.DefaultAccuracy / res.BestAccuracy.Objs[1]
	}
	return res, runErr
}

// WriteCSV dumps the exploration to dir/name_samples.csv (every measured
// configuration with its phase and iteration) and dir/name_front.csv (the
// measured Pareto front), one column per objective. It is a no-op when dir
// is empty.
func (r *DSEResult) WriteCSV(dir, name string) error {
	objCols := func(objs []float64) []string {
		cols := make([]string, len(objs))
		for i, v := range objs {
			cols[i] = f2s(v)
		}
		return cols
	}
	var rows [][]string
	for _, s := range r.Run.Samples {
		phase := "random"
		if s.ActiveLearning {
			phase = "active-learning"
		}
		rows = append(rows, append([]string{
			fmt.Sprintf("%d", s.Index), phase, fmt.Sprintf("%d", s.Iteration),
		}, objCols(s.Objs)...))
	}
	if err := writeCSV(dir, name+"_samples.csv",
		append([]string{"config_index", "phase", "iteration"}, r.Objectives.Names()...), rows); err != nil {
		return err
	}
	rows = rows[:0]
	for _, p := range r.Run.Front {
		rows = append(rows, append([]string{fmt.Sprintf("%d", p.ID)}, objCols(p.Objs)...))
	}
	return writeCSV(dir, name+"_front.csv",
		append([]string{"config_index"}, r.Objectives.Names()...), rows)
}

// Render draws the Fig. 3/4-style scatter: random samples, active-learning
// samples, front, and the default configuration.
func (r *DSEResult) Render(w io.Writer) {
	var rndX, rndY, alX, alY []float64
	for _, s := range r.Run.Samples {
		// Clip to the plot window the paper uses (accuracy < 2× limit)
		// so the catastrophic configurations do not flatten the band.
		if s.Objs[1] > 2*slambench.AccuracyLimit {
			continue
		}
		if s.ActiveLearning {
			alX = append(alX, s.Objs[0])
			alY = append(alY, s.Objs[1])
		} else {
			rndX = append(rndX, s.Objs[0])
			rndY = append(rndY, s.Objs[1])
		}
	}
	var frontX, frontY []float64
	for _, p := range r.Run.Front {
		if p.Objs[1] > 2*slambench.AccuracyLimit {
			continue
		}
		frontX = append(frontX, p.Objs[0])
		frontY = append(frontY, p.Objs[1])
	}
	plot.Scatter(w, fmt.Sprintf("%s on %s — random (r) vs active learning (a), front (#), default (D)",
		r.Benchmark, r.Platform),
		[]plot.Series{
			{Name: "random sampling", Marker: 'r', X: rndX, Y: rndY},
			{Name: "active learning", Marker: 'a', X: alX, Y: alY},
			{Name: "pareto front", Marker: '#', X: frontX, Y: frontY},
			{Name: "default", Marker: 'D', X: []float64{r.DefaultRuntime}, Y: []float64{r.DefaultAccuracy}},
		}, 68, 20, "runtime (s/frame)", "ATE (m)")
	nAL := len(r.Run.ActiveSamples())
	fprintfIgnore(w, "samples: %d (%d random + %d active learning), converged: %v\n",
		len(r.Run.Samples), len(r.Run.Samples)-nAL, nAL, r.Run.Converged)
	fprintfIgnore(w, "valid configs (<%.2gm): random %d, active-learning %d; front size %d\n",
		slambench.AccuracyLimit, r.ValidRandom, r.ValidAL, r.FrontSize)
	if r.Run.CacheHits+r.Run.CacheMisses > 0 {
		fprintfIgnore(w, "evaluation cache: %d hits, %d misses\n", r.Run.CacheHits, r.Run.CacheMisses)
	}
	if total := r.FitTime + r.EncodeTime + r.PredictTime + r.EvalTime; total > 0 {
		fprintfIgnore(w, "time: fit %v, encode %v, predict %v, evaluate %v\n",
			r.FitTime.Round(time.Millisecond), r.EncodeTime.Round(time.Millisecond),
			r.PredictTime.Round(time.Millisecond), r.EvalTime.Round(time.Millisecond))
	}
	if r.BestValidSpeed != nil {
		fprintfIgnore(w, "default %.3fs/frame -> best valid %.3fs/frame: speedup %.2fx (accuracy %.4fm)\n",
			r.DefaultRuntime, r.BestValidSpeed.Objs[0], r.SpeedupVsDefault, r.BestValidSpeed.Objs[1])
	}
	if len(r.BestAccuracy.Objs) > 0 {
		fprintfIgnore(w, "best accuracy %.4fm vs default %.4fm: gain %.2fx\n",
			r.BestAccuracy.Objs[1], r.DefaultAccuracy, r.AccuracyGainVsDefault)
	}
}

// Fig3 runs the KFusion exploration of Figure 3 on the named platform
// ("ODROID-XU3" for 3a, "ASUS-T200TA" for 3b).
func Fig3(opts Options, platform string) (*DSEResult, error) {
	dev, ok := device.ByName(platform)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown platform %q", platform)
	}
	suffix := "a"
	if platform == "ASUS-T200TA" {
		suffix = "b"
	}
	return opts.figDSE("fig3"+suffix, "kfusion", dev)
}

// Fig4 runs the ElasticFusion exploration of Figure 4 on the GTX 780 Ti.
func Fig4(opts Options) (*DSEResult, error) {
	return opts.figDSE("fig4", "elasticfusion", device.GTX780Ti())
}

// figDSE is a figure's exploration: RunDSE at the scale's dataset and budget,
// with one progress line per phase, written to OutDir under the figure's
// name.
func (o Options) figDSE(fig, benchName string, dev device.Model) (*DSEResult, error) {
	o = o.withDefaults()
	bench, err := slambench.ByName(benchName, o.datasetScale())
	if err != nil {
		return nil, err
	}
	budget := o.dseBudget(benchName == "elasticfusion")
	budget.OnIteration = func(s core.IterationStats) {
		log.Printf("iteration %d: predicted front %d, new samples %d, front size %d",
			s.Iteration, s.PredictedFrontSize, s.NewSamples, s.FrontSize)
	}
	res, err := RunDSE(context.Background(), bench, dev, slambench.RuntimeAccuracy, budget)
	if err != nil {
		return nil, err
	}
	if err := res.WriteCSV(o.OutDir, fig+"_"+benchName+"_"+dev.Name); err != nil {
		return nil, err
	}
	return res, nil
}
