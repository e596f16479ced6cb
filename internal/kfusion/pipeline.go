// Package kfusion implements the KinectFusion dense SLAM pipeline
// (Newcombe et al., ISMAR 2011) as benchmarked by SLAMBench: bilateral
// preprocessing, multi-scale projective-data-association ICP tracking, TSDF
// integration and raycasting. All seven algorithmic parameters of the
// paper's design space (§III-B) are exposed and per-kernel work counters
// feed the device runtime models.
package kfusion

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/sensor"
)

// Config holds the algorithmic parameters of the paper's KFusion design
// space (§III-B).
type Config struct {
	// VolumeResolution is the voxel count per volume side (64–256).
	VolumeResolution int
	// Mu is the TSDF truncation distance in meters.
	Mu float64
	// ComputeRatio is the fractional depth image resolution (1, 2, 4, 8).
	ComputeRatio int
	// TrackingRate localizes every TrackingRate-th frame.
	TrackingRate int
	// IntegrationRate fuses every IntegrationRate-th frame.
	IntegrationRate int
	// ICPThreshold stops ICP iterations once the pose update norm falls
	// below it (larger = faster, less accurate).
	ICPThreshold float64
	// PyramidIters bounds ICP iterations per pyramid level, finest first.
	PyramidIters [3]int
}

// DefaultConfig returns the expert defaults KFusion ships with (tuned by
// the original developers on a desktop NVIDIA GPU, as the paper notes).
func DefaultConfig() Config {
	return Config{
		VolumeResolution: 256,
		Mu:               0.1,
		ComputeRatio:     1,
		TrackingRate:     1,
		IntegrationRate:  2,
		ICPThreshold:     1e-5,
		PyramidIters:     [3]int{10, 5, 4},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.VolumeResolution < 8:
		return fmt.Errorf("kfusion: volume resolution %d too small", c.VolumeResolution)
	case c.Mu <= 0:
		return errors.New("kfusion: mu must be positive")
	case c.ComputeRatio < 1:
		return errors.New("kfusion: compute ratio must be ≥ 1")
	case c.TrackingRate < 1 || c.IntegrationRate < 1:
		return errors.New("kfusion: rates must be ≥ 1")
	case c.ICPThreshold < 0:
		return errors.New("kfusion: negative ICP threshold")
	case c.PyramidIters[0] < 0 || c.PyramidIters[1] < 0 || c.PyramidIters[2] < 0:
		return errors.New("kfusion: negative pyramid iterations")
	}
	return nil
}

// The simulation substrate (not part of the paper's design space).
const (
	// volumeScale divides the simulated voxel resolution: the runtime
	// model is billed at Config.VolumeResolution but the in-memory volume
	// uses VolumeResolution/volumeScale voxels so that thousands of DSE
	// evaluations stay tractable (docs/ARCHITECTURE.md, "Simulation
	// substrate").
	volumeScale = 2
	// volumeSize is the physical edge length in meters, sized to the
	// living room.
	volumeSize = 5.4
	// maxWeight caps the TSDF running average; a voxel's weight is one byte.
	maxWeight = 100
)

// Counters accumulates per-kernel work over a run. Image-kernel counts are
// in actual operations at the simulated resolution; IntegrateFullSweep is
// the res³-per-integrated-frame figure the runtime model bills (the full
// frustum sweep of the original CUDA/OpenCL kernels).
type Counters struct {
	ResizeOps          int64
	BilateralOps       int64
	PyramidOps         int64
	TrackOps           int64
	IntegrateFullSweep int64
	IntegrateActual    int64
	RaycastSteps       int64
	Frames             int64
	TrackedFrames      int64
	IntegratedFrames   int64
	TrackingFailures   int64
}

// Result is the output of one KFusion run.
type Result struct {
	// Trajectory holds the estimated camera-to-world pose per frame.
	Trajectory []geom.Pose
	Counters   Counters
}

// Prepared is a dataset preprocessed at one compute ratio: every frame's
// filtered depth and its three-level vertex / normal pyramid, and the
// preprocessing work counted on the way. Nothing else in Config reaches
// preprocessing, so every configuration at that ratio can share one Prepared.
// Run never writes to it, so any number of Runs may read one at once; the
// volume a Run fuses into is not part of it but comes from a free list that
// every ratio shares.
type Prepared struct {
	ds     *sensor.Dataset
	ratio  int
	intr   imgproc.Intrinsics // at the compute ratio
	frames []preparedFrame

	resizeOps, bilateralOps, pyramidOps int64
}

type preparedFrame struct {
	depth  *imgproc.Map // filtered, at the compute ratio: what is integrated
	levels [3]icpLevel  // fine to coarse: what is tracked
}

// Prepare runs KFusion's preprocessing over every frame of ds at the given
// compute ratio: block-average resize, bilateral filter, two half-sampled
// pyramid levels, and each level's vertex and normal maps.
func Prepare(ds *sensor.Dataset, ratio int) (*Prepared, error) {
	if ds == nil || ds.NumFrames() == 0 {
		return nil, errors.New("kfusion: empty dataset")
	}
	if ratio < 1 {
		return nil, errors.New("kfusion: compute ratio must be ≥ 1")
	}
	intr := ds.Intrinsics.Scaled(ratio)
	if intr.W < 4 || intr.H < 4 {
		return nil, fmt.Errorf("kfusion: compute ratio %d leaves a %dx%d image", ratio, intr.W, intr.H)
	}
	levelIntr := [3]imgproc.Intrinsics{intr, intr.Halved(), intr.Halved().Halved()}
	p := &Prepared{ds: ds, ratio: ratio, intr: intr, frames: make([]preparedFrame, ds.NumFrames())}
	for i := range p.frames {
		// --- Resize + bilateral filter ---
		scaled, rops := imgproc.BlockAverage(ds.Frames[i].Depth, ratio)
		p.resizeOps += rops
		filtered, bops := imgproc.BilateralFilter(scaled, 2, 1.5, 0.1)
		p.bilateralOps += bops

		// --- Pyramid construction + vertex/normal maps ---
		f := &p.frames[i]
		f.depth = filtered
		depths := [3]*imgproc.Map{filtered, nil, nil}
		for l := 1; l < 3; l++ {
			d, pops := imgproc.HalfSampleDepth(depths[l-1], 0.05)
			depths[l] = d
			p.pyramidOps += pops
		}
		for l := 0; l < 3; l++ {
			v := imgproc.DepthToVertex(depths[l], levelIntr[l])
			f.levels[l] = icpLevel{vertex: v, normal: imgproc.VertexToNormal(v)}
			p.pyramidOps += int64(depths[l].W * depths[l].H * 2)
		}
	}
	return p, nil
}

// Run executes tracking, integration and raycasting over p's frames; p must
// have been prepared at cfg.ComputeRatio.
func Run(p *Prepared, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ComputeRatio != p.ratio {
		return nil, fmt.Errorf("kfusion: compute ratio %d run on input prepared at ratio %d", cfg.ComputeRatio, p.ratio)
	}

	simRes := cfg.VolumeResolution / volumeScale
	if simRes < 16 {
		simRes = 16
	}
	vol := takeVolume(simRes)
	defer giveVolume(vol) // after the last Model.Maps, which reads the volume

	res := &Result{Trajectory: make([]geom.Pose, len(p.frames))}
	c := &res.Counters
	c.ResizeOps, c.BilateralOps, c.PyramidOps = p.resizeOps, p.bilateralOps, p.pyramidOps

	pose := p.ds.GroundTruth[0] // SLAMBench initializes from the dataset origin
	var model *Model            // the raycast of the current (volume, pose)

	fullSweep := int64(cfg.VolumeResolution) * int64(cfg.VolumeResolution) * int64(cfg.VolumeResolution)

	for i := range p.frames {
		f := &p.frames[i]
		c.Frames++

		// --- Tracking: against the model cast from the current pose ---
		moved := false
		if i > 0 && i%cfg.TrackingRate == 0 {
			modelVertex, modelNormal := model.Maps()
			newPose, tops, err := trackICP(
				&f.levels, modelVertex, modelNormal, p.intr, pose,
				pose, cfg.PyramidIters, cfg.ICPThreshold,
			)
			c.TrackOps += tops
			if err != nil {
				c.TrackingFailures++
				// Keep the previous pose (constant-position model).
			} else {
				pose = newPose
				moved = true
				c.TrackedFrames++
			}
		}
		res.Trajectory[i] = pose

		// --- Integration ---
		integrated := i == 0 || i%cfg.IntegrationRate == 0
		if integrated {
			c.IntegrateActual += vol.Integrate(f.depth, p.intr, pose, cfg.Mu)
			c.IntegrateFullSweep += fullSweep
			c.IntegratedFrames++
		}

		// --- Raycasting: the model reference for the next frame ---
		// A raycast reads only the volume and the pose; when neither changed
		// it would equal the previous one bit for bit, so that one is kept.
		// Either way the device runs it, so its steps are billed every frame.
		if moved || integrated {
			model = vol.Raycast(p.intr, pose, cfg.Mu, 0.3, 5.0)
		}
		c.RaycastSteps += model.Steps
	}
	return res, nil
}

// volumes is Run's free list: reset volumes over the room, a stack per
// resolution, shared by every compute ratio. A volume is created only when
// every one of its resolution is in use, so the list never holds more
// volumes of a resolution than Runs used at the same time.
var (
	volumesMu sync.Mutex
	volumes   = map[int][]*Volume{}
)

// takeVolume returns a res³ volume centered on the room, every voxel
// unobserved: one from the free list, or a new one.
func takeVolume(res int) *Volume {
	volumesMu.Lock()
	defer volumesMu.Unlock()
	free := volumes[res]
	if n := len(free); n > 0 {
		volumes[res] = free[:n-1]
		return free[n-1]
	}
	return NewVolume(res, volumeSize, geom.V3(0, 1.3, 0))
}

// giveVolume resets v and puts it back on the free list.
func giveVolume(v *Volume) {
	v.reset()
	volumesMu.Lock()
	volumes[v.Res] = append(volumes[v.Res], v)
	volumesMu.Unlock()
}
