package slambench

import (
	"slices"
	"sync"

	"repro/internal/device"
	"repro/internal/kfusion"
	"repro/internal/param"
	"repro/internal/sensor"
)

// KFusion parameter names (paper §III-B).
const (
	KFVolume    = "volume-resolution"
	KFMu        = "mu"
	KFRatio     = "compute-size-ratio"
	KFTrackRate = "tracking-rate"
	KFIntegRate = "integration-rate"
	KFICPThresh = "icp-threshold"
	KFPyramidL0 = "pyramid-l0"
	KFPyramidL1 = "pyramid-l1"
	KFPyramidL2 = "pyramid-l2"
)

// kfRatios are the space's compute-size ratios.
var kfRatios = [...]float64{1, 2, 4, 8}

// KFusionSpace builds the paper's KFusion algorithmic design space: exactly
// 1,800,000 configurations (§III-B).
func KFusionSpace() *param.Space {
	return param.MustSpace(
		param.Levels(KFVolume, 64, 128, 256),
		param.Grid(KFMu, 0.025, 0.5, 8),
		param.Levels(KFRatio, kfRatios[:]...),
		param.Levels(KFTrackRate, 1, 2, 3, 4, 5),
		param.Levels(KFIntegRate, 1, 2, 3, 4, 5),
		param.LogGrid(KFICPThresh, 1e-6, 1e-1, 6),
		param.Levels(KFPyramidL0, 2, 4, 6, 8, 10),
		param.Levels(KFPyramidL1, 2, 4, 6, 8, 10),
		param.Levels(KFPyramidL2, 2, 4, 6, 8, 10),
	)
}

// KFusionBench runs KFusion configurations on a dataset.
type KFusionBench struct {
	DS    *sensor.Dataset
	space *param.Space
	// prepared shares the dataset's preprocessing across configurations,
	// one kfusion.Prepare per compute ratio of the space, built on first use.
	prepared [len(kfRatios)]struct {
		once sync.Once
		p    *kfusion.Prepared
		err  error
	}
}

// NewKFusionBench builds the benchmark over the given dataset.
func NewKFusionBench(ds *sensor.Dataset) *KFusionBench {
	return &KFusionBench{DS: ds, space: KFusionSpace()}
}

// Name implements Benchmark.
func (b *KFusionBench) Name() string { return "kfusion" }

// Space implements Benchmark.
func (b *KFusionBench) Space() *param.Space { return b.space }

// DefaultConfig implements Benchmark: the expert defaults (SLAMBench ships
// volume 256³, µ 0.1, full resolution, track every frame, integrate every
// other frame, ICP threshold 1e-5, pyramid iterations (10, 5, 4)). Note
// µ=0.1 and the (10,5,4) pyramid lie off the space grid, as in the paper,
// where the default is plotted as a separate reference point.
func (b *KFusionBench) DefaultConfig() param.Config {
	def := kfusion.DefaultConfig()
	return param.Config{
		float64(def.VolumeResolution),
		def.Mu,
		float64(def.ComputeRatio),
		float64(def.TrackingRate),
		float64(def.IntegrationRate),
		def.ICPThreshold,
		float64(def.PyramidIters[0]),
		float64(def.PyramidIters[1]),
		float64(def.PyramidIters[2]),
	}
}

// ToConfig decodes a parameter vector into the pipeline configuration.
func (b *KFusionBench) ToConfig(cfg param.Config) kfusion.Config {
	s := b.space
	return kfusion.Config{
		VolumeResolution: int(s.Get(cfg, KFVolume)),
		Mu:               s.Get(cfg, KFMu),
		ComputeRatio:     int(s.Get(cfg, KFRatio)),
		TrackingRate:     int(s.Get(cfg, KFTrackRate)),
		IntegrationRate:  int(s.Get(cfg, KFIntegRate)),
		ICPThreshold:     s.Get(cfg, KFICPThresh),
		PyramidIters: [3]int{
			int(s.Get(cfg, KFPyramidL0)),
			int(s.Get(cfg, KFPyramidL1)),
			int(s.Get(cfg, KFPyramidL2)),
		},
	}
}

// Evaluate implements Benchmark.
func (b *KFusionBench) Evaluate(cfg param.Config, dev device.Model) (Metrics, error) {
	res, err := b.run(b.ToConfig(cfg))
	if err != nil {
		return Metrics{}, fmtErr(b, err)
	}
	return b.metrics(res, dev)
}

// run executes the pipeline on the benchmark's dataset.
func (b *KFusionBench) run(cfg kfusion.Config) (*kfusion.Result, error) {
	p, err := b.prepare(cfg.ComputeRatio)
	if err != nil {
		return nil, err
	}
	return kfusion.Run(p, cfg)
}

// prepare returns the dataset preprocessed at the given compute ratio, built
// once per ratio of the space; a ratio off the space's grid is not shared.
func (b *KFusionBench) prepare(ratio int) (*kfusion.Prepared, error) {
	i := slices.Index(kfRatios[:], float64(ratio))
	if i < 0 {
		return kfusion.Prepare(b.DS, ratio)
	}
	m := &b.prepared[i]
	m.once.Do(func() { m.p, m.err = kfusion.Prepare(b.DS, ratio) })
	return m.p, m.err
}

// metrics scores a run and prices its counted work on dev.
func (b *KFusionBench) metrics(res *kfusion.Result, dev device.Model) (Metrics, error) {
	return measure(b, res.Trajectory, b.DS.GroundTruth, kfusionWork(res.Counters, pixelScale(b.DS)), res.Counters.Frames, dev)
}

// kfusionWork converts pipeline counters to paper-scale work: image kernels
// scale with the pixel ratio; integration is already billed as the full
// res³ frustum sweep.
func kfusionWork(c kfusion.Counters, px float64) device.Work {
	return device.Work{
		device.KernelResize:    float64(c.ResizeOps) * px,
		device.KernelBilateral: float64(c.BilateralOps) * px,
		device.KernelPyramid:   float64(c.PyramidOps) * px,
		device.KernelTrack:     float64(c.TrackOps) * px,
		device.KernelIntegrate: float64(c.IntegrateFullSweep),
		device.KernelRaycast:   float64(c.RaycastSteps) * px,
	}
}

// Accuracy implements Benchmark: KFusion experiments report the max ATE
// (the Fig. 3 y-axis and the 5 cm validity bound).
func (b *KFusionBench) Accuracy(m Metrics) float64 { return m.MaxATE }
