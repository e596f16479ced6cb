package slambench

import (
	"repro/internal/device"
	"repro/internal/elasticfusion"
	"repro/internal/param"
	"repro/internal/sensor"
)

// ElasticFusion parameter names (paper §III-C / Table I).
const (
	EFICPWeight  = "icp-rgb-weight"
	EFDepthCut   = "depth-cutoff"
	EFConfidence = "confidence"
	EFSO3        = "so3"
	EFOpenLoop   = "open-loop"
	EFReloc      = "reloc"
	EFFastOdom   = "fast-odom"
	EFFTFRGB     = "ftf-rgb"
)

// ElasticFusionSpace builds the paper's ElasticFusion design space:
// 24³·2⁵ = 442,368 configurations ("roughly 450,000", §III-C).
func ElasticFusionSpace() *param.Space {
	return param.MustSpace(
		param.Grid(EFICPWeight, 0.5, 12, 24),
		param.Grid(EFDepthCut, 0.5, 12, 24),
		param.Grid(EFConfidence, 0.5, 12, 24),
		param.Bool(EFSO3),
		param.Bool(EFOpenLoop),
		param.Bool(EFReloc),
		param.Bool(EFFastOdom),
		param.Bool(EFFTFRGB),
	)
}

// ElasticFusionBench runs ElasticFusion configurations on a dataset.
type ElasticFusionBench struct {
	DS    *sensor.Dataset
	space *param.Space
}

// NewElasticFusionBench builds the benchmark over the given dataset.
func NewElasticFusionBench(ds *sensor.Dataset) *ElasticFusionBench {
	return &ElasticFusionBench{DS: ds, space: ElasticFusionSpace()}
}

// Name implements Benchmark.
func (b *ElasticFusionBench) Name() string { return "elasticfusion" }

// Space implements Benchmark.
func (b *ElasticFusionBench) Space() *param.Space { return b.space }

// DefaultConfig implements Benchmark: Table I's default row
// (ICP 10, depth 3, confidence 10, SO3 on, loops on, reloc on).
func (b *ElasticFusionBench) DefaultConfig() param.Config {
	d := elasticfusion.DefaultConfig()
	return param.Config{
		d.ICPWeight,
		d.DepthCutoff,
		d.Confidence,
		boolTo01(d.SO3),
		boolTo01(d.OpenLoop),
		boolTo01(d.Reloc),
		boolTo01(d.FastOdom),
		boolTo01(d.FrameToFrameRGB),
	}
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ToConfig decodes a parameter vector into the pipeline configuration.
func (b *ElasticFusionBench) ToConfig(cfg param.Config) elasticfusion.Config {
	s := b.space
	return elasticfusion.Config{
		ICPWeight:       s.Get(cfg, EFICPWeight),
		DepthCutoff:     s.Get(cfg, EFDepthCut),
		Confidence:      s.Get(cfg, EFConfidence),
		SO3:             s.Get(cfg, EFSO3) != 0,
		OpenLoop:        s.Get(cfg, EFOpenLoop) != 0,
		Reloc:           s.Get(cfg, EFReloc) != 0,
		FastOdom:        s.Get(cfg, EFFastOdom) != 0,
		FrameToFrameRGB: s.Get(cfg, EFFTFRGB) != 0,
	}
}

// Evaluate implements Benchmark. The accuracy objective for ElasticFusion
// is the mean ATE (Table I "Error"), unlike KFusion's max-ATE axis.
func (b *ElasticFusionBench) Evaluate(cfg param.Config, dev device.Model) (Metrics, error) {
	res, err := elasticfusion.Run(b.DS, b.ToConfig(cfg))
	if err != nil {
		return Metrics{}, fmtErr(b, err)
	}
	return measure(b, res.Trajectory, b.DS.GroundTruth, efWork(res.Counters, pixelScale(b.DS)), res.Counters.Frames, dev)
}

// efWork converts pipeline counters to paper-scale work. Surfel counts are
// proportional to processed pixels, so render/fuse scale with the pixel
// ratio like the image kernels.
func efWork(c elasticfusion.Counters, px float64) device.Work {
	return device.Work{
		device.KernelPreprocess: float64(c.PreprocessOps) * px,
		device.KernelPyramid:    float64(c.PyramidOps) * px,
		device.KernelSO3:        float64(c.SO3Ops) * px,
		device.KernelICP:        float64(c.ICPOps) * px,
		device.KernelRGB:        float64(c.RGBOps) * px,
		device.KernelRender:     float64(c.RenderOps) * px,
		device.KernelFuse:       float64(c.FuseOps) * px,
		device.KernelLoop:       float64(c.LoopOps) * px,
		device.KernelFern:       float64(c.FernOps) * px,
	}
}

// Accuracy implements Benchmark: ElasticFusion experiments report the mean
// ATE (Table I "Error").
func (b *ElasticFusionBench) Accuracy(m Metrics) float64 { return m.MeanATE }
