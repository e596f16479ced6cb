// Package slambench is the SLAMBench-style measurement harness (Nardi et
// al., ICRA 2015) wiring the SLAM pipelines, the synthetic dataset, and the
// device models together: it defines the paper's two algorithmic design
// spaces, runs a configuration, computes the absolute trajectory error
// (ATE) metric and the modeled device runtime, and adapts benchmarks to the
// HyperMapper optimizer.
package slambench

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/param"
	"repro/internal/sensor"
	"repro/internal/traj"
)

// Metrics are the performance measurements of one run (paper §I: accuracy
// of estimated trajectory, lower is better, and runtime, lower is better;
// plus modeled power for the three-objective extension).
type Metrics struct {
	MeanATE      float64 // meters
	MaxATE       float64 // meters
	SecPerFrame  float64 // modeled device seconds per frame
	FPS          float64 // 1 / SecPerFrame
	TotalSeconds float64 // modeled seconds over NominalFrames
	PowerW       float64 // modeled average power
	Work         device.Work
	Frames       int
}

// AccuracyLimit is the paper's validity bound: configurations with max ATE
// below 5 cm count as valid (Fig. 3).
const AccuracyLimit = 0.05

// NominalFrames is the sequence length runtime totals are reported over
// (the full ICL-NUIM living-room kt2 sequence the Table I totals refer to).
const NominalFrames = 880

// PaperPixels is the pixel count of the sensors the paper's platforms
// process (640×480); counted image-kernel work is rescaled to it.
const PaperPixels = 640 * 480

// Benchmark is one SLAM application under measurement.
type Benchmark interface {
	// Name returns the benchmark identifier ("kfusion", "elasticfusion").
	Name() string
	// Space returns the paper's algorithmic design space.
	Space() *param.Space
	// DefaultConfig returns the expert default configuration, expressed in
	// Space parameter order (values need not lie on the space grid).
	DefaultConfig() param.Config
	// Evaluate runs one configuration on the device model and returns its
	// metrics. Implementations are safe for concurrent use.
	Evaluate(cfg param.Config, dev device.Model) (Metrics, error)
	// Accuracy extracts the benchmark's accuracy objective from metrics:
	// max ATE for KFusion (Fig. 3 y-axis), mean ATE for ElasticFusion
	// (Table I "Error").
	Accuracy(m Metrics) float64
}

// Names lists the benchmarks ByName builds, in catalog order.
var Names = []string{"kfusion", "elasticfusion"}

// scales lists the dataset scales ByName accepts (see DatasetOptions).
var scales = []string{"full", "dse", "test"}

// ByName builds the named benchmark over the cached dataset of the given
// scale. Name and scale are both checked before the dataset is rendered, so
// a typo in either fails at once instead of after the full render.
func ByName(name, scale string) (Benchmark, error) {
	if !slices.Contains(scales, scale) {
		return nil, fmt.Errorf("unknown dataset scale %q (%s)", scale, strings.Join(scales, "|"))
	}
	switch name {
	case "kfusion":
		return NewKFusionBench(CachedDataset(scale)), nil
	case "elasticfusion":
		return NewElasticFusionBench(CachedDataset(scale)), nil
	}
	return nil, fmt.Errorf("unknown benchmark %q (%s)", name, strings.Join(Names, "|"))
}

// Objectives enumerates evaluator outputs.
type Objectives int

const (
	// RuntimeAccuracy is the paper's two-objective setting:
	// (seconds per frame, max ATE).
	RuntimeAccuracy Objectives = iota
	// RuntimeAccuracyPower adds modeled power as a third objective
	// (the PACT'16 predecessor's setting).
	RuntimeAccuracyPower
)

// Names returns the objective names in evaluator output order — the
// catalog's objective list and the CSV column names.
func (o Objectives) Names() []string {
	names := []string{"runtime_s_per_frame", "accuracy_ate_m"}
	if o == RuntimeAccuracyPower {
		names = append(names, "power_w")
	}
	return names
}

// Count returns the number of objective values.
func (o Objectives) Count() int { return len(o.Names()) }

// Evaluator adapts a benchmark+device to the optimizer. Evaluation errors
// (degenerate configurations) are mapped to a heavily penalized objective
// vector rather than aborting the exploration, mirroring how broken
// configurations show up on real hardware (timeouts/garbage output).
func Evaluator(b Benchmark, dev device.Model, obj Objectives) core.Evaluator {
	return core.EvaluatorFunc(func(cfg param.Config) []float64 {
		m, err := b.Evaluate(cfg, dev)
		if err != nil {
			bad := []float64{10, 10}
			if obj == RuntimeAccuracyPower {
				bad = append(bad, 1000)
			}
			return bad
		}
		out := []float64{m.SecPerFrame, b.Accuracy(m)}
		if obj == RuntimeAccuracyPower {
			out = append(out, m.PowerW)
		}
		return out
	})
}

// DatasetOptions returns the sensor options for the named dataset scale:
//
//   - "full": 160×120, 100 frames — the reference dataset standing in for
//     the lr kt2 sequence; calibration tests use it.
//   - "dse": 120×90, the first 60 frames — the exploration workload. The
//     paper applies the same trick ("we halved the original sequence in
//     order to reduce the overall execution time of the benchmark",
//     §III-A); modeled runtime is unaffected because image-kernel work is
//     rescaled to paper pixels.
//   - "test": 80×60, 30 frames, for unit tests.
//
// Any other name reads as "full"; ByName is where a user's -dataset value is
// checked.
func DatasetOptions(scale string) sensor.Options {
	switch scale {
	case "test":
		return sensor.Options{
			Width: 80, Height: 60, Frames: 30,
			Noise:      sensor.KinectNoise(2),
			Trajectory: sensor.TrajectorySlice(sensor.LivingRoomTrajectory2, 100),
			Name:       "living-room-traj2-test",
		}
	case "dse":
		return sensor.Options{
			Width: 120, Height: 90, Frames: 60,
			Noise:      sensor.KinectNoise(2),
			Trajectory: sensor.TrajectorySlice(sensor.LivingRoomTrajectory2, 100),
			Name:       "living-room-traj2-halved",
		}
	default:
		return sensor.Options{
			Width: 160, Height: 120, Frames: 100,
			Noise: sensor.KinectNoise(2),
			Name:  "living-room-traj2",
		}
	}
}

var (
	dsCache   = map[string]*sensor.Dataset{}
	dsCacheMu sync.Mutex
)

// CachedDataset generates (once per process) and returns the named dataset
// scale. Rendering "full" takes about 4 s on two cores, "dse" about 1 s and
// "test" a third of a second; every benchmark and experiment shares the
// cached instance rather than pay that again.
func CachedDataset(scale string) *sensor.Dataset {
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if ds, ok := dsCache[scale]; ok {
		return ds
	}
	ds := sensor.Generate(DatasetOptions(scale))
	dsCache[scale] = ds
	return ds
}

// pixelScale returns the factor mapping image-kernel work counted at the
// dataset resolution to paper-scale (640×480) work.
func pixelScale(ds *sensor.Dataset) float64 {
	return PaperPixels / float64(ds.Intrinsics.W*ds.Intrinsics.H)
}

// measure is the one procedure behind every number the benchmarks report:
// score the estimated trajectory against the ground truth (ATE) and price
// the pipeline's counted work over frames frames on dev.
func measure(b Benchmark, est, truth []geom.Pose, work device.Work, frames int64, dev device.Model) (Metrics, error) {
	ate, err := traj.ATE(est, truth)
	if err != nil {
		return Metrics{}, fmtErr(b, err)
	}
	spf := dev.SecondsPerFrame(work, float64(frames))
	return Metrics{
		MeanATE:      ate.Mean,
		MaxATE:       ate.Max,
		SecPerFrame:  spf,
		FPS:          1 / spf,
		TotalSeconds: spf * NominalFrames,
		PowerW:       dev.AveragePowerW(work, float64(frames)),
		Work:         work,
		Frames:       int(frames),
	}, nil
}

func fmtErr(b Benchmark, err error) error {
	return fmt.Errorf("slambench: %s: %w", b.Name(), err)
}
