// Package repro holds the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (§IV), plus
// ablation benchmarks for the loop's design choices (docs/ARCHITECTURE.md,
// "The active-learning iteration").
//
// The per-figure benchmarks run the experiment generators at test scale so
// `go test -bench=.` finishes in minutes; `cmd/figures -scale quick|full`
// regenerates the real artifacts. Domain results (front sizes, speedups,
// valid-configuration counts) are attached to the benchmark output via
// b.ReportMetric so the numbers land in bench logs.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/forest"
	"repro/internal/pareto"
	"repro/internal/slambench"
)

func benchOpts(seed int64) experiments.Options {
	return experiments.Options{Scale: experiments.ScaleTest, Seed: seed}
}

// BenchmarkFig1ResponseSurface regenerates the Figure 1 µ × icp-threshold
// runtime response surface.
func BenchmarkFig1ResponseSurface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(benchOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if !res.IsNonTrivial() {
			b.Fatal("flat response surface")
		}
	}
}

// BenchmarkFig3aKFusionODROID regenerates the Figure 3a exploration
// (KFusion, ODROID-XU3): random sampling vs active learning.
func BenchmarkFig3aKFusionODROID(b *testing.B) {
	var last *experiments.DSEResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchOpts(int64(i+1)), "ODROID-XU3")
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportDSE(b, last)
}

// BenchmarkFig3bKFusionASUS regenerates the Figure 3b exploration
// (KFusion, ASUS T200TA).
func BenchmarkFig3bKFusionASUS(b *testing.B) {
	var last *experiments.DSEResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchOpts(int64(i+1)), "ASUS-T200TA")
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportDSE(b, last)
}

// BenchmarkFig4ElasticFusionGTX regenerates the Figure 4 exploration
// (ElasticFusion, GTX 780 Ti).
func BenchmarkFig4ElasticFusionGTX(b *testing.B) {
	var last *experiments.DSEResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportDSE(b, last)
}

// BenchmarkFig5Crowdsourcing regenerates the Figure 5 crowd-sourcing
// speedup distribution (best Pareto config vs default across market
// devices).
func BenchmarkFig5Crowdsourcing(b *testing.B) {
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchOpts(int64(i+1)), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.MinSpeedup, "min-speedup-x")
		b.ReportMetric(last.MedianSpeedup, "median-speedup-x")
		b.ReportMetric(last.MaxSpeedup, "max-speedup-x")
		b.ReportMetric(last.SpearmanToODROID, "spearman")
	}
}

// BenchmarkTable1ElasticFusionPareto regenerates Table I.
func BenchmarkTable1ElasticFusionPareto(b *testing.B) {
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchOpts(int64(i+1)), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.SpeedupBestSpeed, "best-speed-x")
		b.ReportMetric(last.AccuracyGain, "accuracy-gain-x")
		b.ReportMetric(float64(len(last.Rows)), "rows")
	}
}

func reportDSE(b *testing.B, res *experiments.DSEResult) {
	if res == nil {
		return
	}
	b.ReportMetric(float64(res.FrontSize), "front-points")
	b.ReportMetric(float64(res.ValidRandom), "valid-random")
	b.ReportMetric(float64(res.ValidAL), "valid-al")
	if res.SpeedupVsDefault > 0 {
		b.ReportMetric(res.SpeedupVsDefault, "speedup-x")
	}
	// Optimizer-side vs evaluation wall-clock of the last run, so the bench
	// logs track where exploration time goes.
	b.ReportMetric(res.FitTime.Seconds()*1e3, "fit-ms")
	b.ReportMetric((res.EncodeTime+res.PredictTime).Seconds()*1e3, "predict-ms")
	b.ReportMetric(res.EvalTime.Seconds()*1e3, "eval-ms")
}

// --- Ablations ---

// BenchmarkAblationRandomOnlyVsActiveLearning compares the hypervolume of
// random-only exploration against the full loop at equal evaluation
// budgets — the paper's central comparison, as an ablation.
func BenchmarkAblationRandomOnlyVsActiveLearning(b *testing.B) {
	bench := slambench.NewKFusionBench(slambench.CachedDataset("test"))
	dev := device.ODROIDXU3()
	eval := slambench.Evaluator(bench, dev, slambench.RuntimeAccuracy)
	ref := [2]float64{1, 1}
	var hvRandom, hvAL float64
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		// 24 evaluations spent entirely on random sampling…
		randOnly, err := core.Run(bench.Space(), eval, core.Options{
			Objectives: 2, RandomSamples: 24, MaxIterations: 1, MaxBatch: 0,
			PoolCap: 2000, Seed: seed,
			Forest: forest.Options{Trees: 8},
		})
		if err != nil {
			b.Fatal(err)
		}
		// …vs 16 random + up to 8 model-chosen.
		al, err := core.Run(bench.Space(), eval, core.Options{
			Objectives: 2, RandomSamples: 16, MaxIterations: 1, MaxBatch: 8,
			PoolCap: 2000, Seed: seed,
			Forest: forest.Options{Trees: 8},
		})
		if err != nil {
			b.Fatal(err)
		}
		hvRandom = pareto.Hypervolume2D(randOnly.RandomFront, ref)
		hvAL = pareto.Hypervolume2D(al.Front, ref)
	}
	b.ReportMetric(hvRandom, "hv-random")
	b.ReportMetric(hvAL, "hv-active-learning")
}

// BenchmarkAblationForestSize sweeps the per-objective forest size.
func BenchmarkAblationForestSize(b *testing.B) {
	bench := slambench.NewKFusionBench(slambench.CachedDataset("test"))
	eval := slambench.Evaluator(bench, device.ODROIDXU3(), slambench.RuntimeAccuracy)
	for _, trees := range []int{8, 32} {
		b.Run(sizeName(trees), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Run(bench.Space(), eval, core.Options{
					Objectives: 2, RandomSamples: 16, MaxIterations: 1,
					MaxBatch: 8, PoolCap: 2000, Seed: int64(i + 1),
					Forest: forest.Options{Trees: trees},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	if n < 10 {
		return "trees-small"
	}
	return "trees-large"
}

// BenchmarkAblationThreeObjectives exercises the runtime × accuracy ×
// power mode (the PACT'16 predecessor's setting).
func BenchmarkAblationThreeObjectives(b *testing.B) {
	bench := slambench.NewKFusionBench(slambench.CachedDataset("test"))
	eval := slambench.Evaluator(bench, device.ODROIDXU3(), slambench.RuntimeAccuracyPower)
	var frontSize int
	for i := 0; i < b.N; i++ {
		res, err := core.Run(bench.Space(), eval, core.Options{
			Objectives: 3, RandomSamples: 16, MaxIterations: 1,
			MaxBatch: 8, PoolCap: 2000, Seed: int64(i + 1),
			Forest: forest.Options{Trees: 8},
		})
		if err != nil {
			b.Fatal(err)
		}
		frontSize = len(res.Front)
	}
	b.ReportMetric(float64(frontSize), "front-points")
}

// BenchmarkAblationPoolCap compares exhaustive prediction pools against
// subsampled ones (the scalability knob for the 1.8M-point space).
func BenchmarkAblationPoolCap(b *testing.B) {
	bench := slambench.NewKFusionBench(slambench.CachedDataset("test"))
	eval := slambench.Evaluator(bench, device.ODROIDXU3(), slambench.RuntimeAccuracy)
	for _, cap := range []int{1000, 50000} {
		name := "pool-small"
		if cap > 1000 {
			name = "pool-large"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Run(bench.Space(), eval, core.Options{
					Objectives: 2, RandomSamples: 16, MaxIterations: 1,
					MaxBatch: 8, PoolCap: cap, Seed: int64(i + 1),
					Forest: forest.Options{Trees: 8},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
