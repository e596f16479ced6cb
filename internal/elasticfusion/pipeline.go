// Package elasticfusion implements a surfel-based dense SLAM system after
// ElasticFusion (Whelan et al., RSS 2015), the second benchmark of the
// paper: joint geometric+photometric tracking with optional SO(3)
// pre-alignment, surfel fusion with a confidence threshold, local loop
// closure against the inactive model, and randomized-fern relocalisation.
// All eight algorithmic parameters/flags of the paper's design space
// (§III-C, Table I) are exposed, and per-kernel work counters feed the
// device runtime models.
//
// Deviation from the original (docs/ARCHITECTURE.md, "Simulation
// substrate"): map deformation on loop closure is simplified to a rigid pose
// correction — the paper's DSE observes only trajectory error and runtime,
// which the simplification preserves.
package elasticfusion

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/sensor"
)

// Config holds the paper's ElasticFusion design space (§III-C): three
// continuous parameters and five flags.
type Config struct {
	// ICPWeight is the relative ICP/RGB tracking weight (Table I "ICP").
	ICPWeight float64
	// DepthCutoff discards raw depth beyond this distance in meters
	// (Table I "Depth").
	DepthCutoff float64
	// Confidence is the surfel confidence threshold gating which surfels
	// count as stable model (Table I "Confidence").
	Confidence float64
	// SO3 enables the rotational pre-alignment step (Table I "SO3";
	// the paper's flag *disables* it, the default has it on).
	SO3 bool
	// OpenLoop disables local loop closure (Table I "Close-Loops"
	// reports loop closures; open loop = no local loop closure code).
	OpenLoop bool
	// Reloc enables fern-based relocalisation after tracking loss.
	Reloc bool
	// FastOdom uses a single pyramid level for odometry.
	FastOdom bool
	// FrameToFrameRGB uses the previous frame instead of the model
	// prediction as the photometric reference.
	FrameToFrameRGB bool
}

// DefaultConfig returns the configuration the ElasticFusion authors ship
// (the paper's Table I "Default" row: ICP 10, depth 3, confidence 10,
// SO3 on, loop closure on, relocalisation on, fast odometry off, frame-to-
// frame RGB off).
func DefaultConfig() Config {
	return Config{
		ICPWeight:   10,
		DepthCutoff: 3,
		Confidence:  10,
		SO3:         true,
		OpenLoop:    false,
		Reloc:       true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.ICPWeight < 0:
		return errors.New("elasticfusion: negative ICP weight")
	case c.DepthCutoff <= 0:
		return errors.New("elasticfusion: depth cutoff must be positive")
	case c.Confidence < 0:
		return errors.New("elasticfusion: negative confidence threshold")
	}
	return nil
}

// Counters accumulates per-kernel work for the runtime model.
type Counters struct {
	PreprocessOps  int64 // depth cutoff + bilateral
	PyramidOps     int64
	SO3Ops         int64
	ICPOps         int64
	RGBOps         int64
	RenderOps      int64 // surfel projections (model prediction)
	FuseOps        int64
	LoopOps        int64 // local loop closure ICP
	FernOps        int64
	Frames         int64
	TrackedFrames  int64
	TrackFailures  int64
	LoopClosures   int64
	Relocalization int64
	SurfelsFinal   int64
	SurfelsMerged  int64
	SurfelsAdded   int64
}

// Result is the output of one ElasticFusion run.
type Result struct {
	Trajectory []geom.Pose
	Counters   Counters
}

// internal pipeline constants (not part of the paper's space).
const (
	pyramidLevels  = 3
	unstableWindow = 25  // frames an unconfirmed surfel may live
	inactiveWindow = 40  // frames after which surfels count as inactive
	loopEvery      = 5   // local loop closure attempt period
	fernEvery      = 8   // fern keyframe period
	fernProbes     = 32  // probes per fern code
	fernReloc      = 0.3 // max dissimilarity for a relocalisation match
)

// Run executes the full pipeline over the dataset.
func Run(ds *sensor.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ds == nil || ds.NumFrames() == 0 {
		return nil, errors.New("elasticfusion: empty dataset")
	}
	intr := ds.Intrinsics
	if intr.W < 16 || intr.H < 16 {
		return nil, fmt.Errorf("elasticfusion: image %dx%d too small", intr.W, intr.H)
	}

	res := &Result{Trajectory: make([]geom.Pose, ds.NumFrames())}
	c := &res.Counters
	smap := &SurfelMap{}
	ferns := newFernDB(fernProbes, 16, 12, 1)
	confTh := float32(cfg.Confidence)

	iterations := []int{10, 5, 4}
	levels := []int{0, 1, 2}
	if cfg.FastOdom {
		iterations = []int{10}
		levels = []int{0}
	}

	pose := ds.GroundTruth[0]
	var prev *frameData
	var prevPose geom.Pose
	var prevVertexWorld *imgproc.VecMap

	for i := 0; i < ds.NumFrames(); i++ {
		c.Frames++
		frame := int32(i)

		// --- Preprocessing: depth cutoff + light bilateral filter ---
		depth := ds.Frames[i].Depth.Clone()
		for pi, d := range depth.Pix {
			if float64(d) > cfg.DepthCutoff {
				depth.Pix[pi] = 0
			}
		}
		c.PreprocessOps += int64(len(depth.Pix))
		filtered, bops := imgproc.BilateralFilter(depth, 1, 1.0, 0.08)
		c.PreprocessOps += bops

		cur, pops := buildFrameData(filtered, ds.Frames[i].Intensity, intr, pyramidLevels)
		c.PyramidOps += pops

		if i == 0 {
			res.Trajectory[i] = pose
			bootstrapFrame(smap, cur, intr, pose, frame, confTh, c)
			code, fops := ferns.encode(filtered, ds.Frames[i].Intensity)
			c.FernOps += fops
			ferns.add(code, pose, frame)
			prev, prevPose = cur, pose
			prevVertexWorld = vertexToWorld(cur.vertex[0], pose)
			continue
		}

		// --- Model prediction from the previous pose ---
		// Stable surfels form the primary prediction; unstable-but-recent
		// surfels fill the holes (the confidence threshold still governs
		// which geometry dominates — low thresholds admit noisy surfels,
		// "creating a noisy map" as the paper puts it).
		stable := func(s *Surfel) bool {
			return s.Conf >= confTh && frame-s.LastSeen <= inactiveWindow
		}
		unstableRecent := func(s *Surfel) bool {
			return s.Conf < confTh && frame-s.LastSeen <= 2
		}
		model, rops := smap.RenderWithFallback(intr, prevPose, stable, unstableRecent)
		c.RenderOps += rops

		// --- SO(3) pre-alignment ---
		guess := pose
		if cfg.SO3 {
			rot, sops := so3PreAlign(cur, prev)
			c.SO3Ops += sops
			// Apply the increment in the camera frame: world rotation of
			// the new frame is prevR · rotᵀ (rot maps prev rays onto cur).
			guess = geom.Pose{R: prevPose.R.Mul(rot.Transpose()), T: prevPose.T}.Orthonormalize()
		}

		// --- Photometric reference selection ---
		refIntensity := model.intensity
		refVertexWorld := model.vertex
		refPose := prevPose
		if cfg.FrameToFrameRGB {
			refIntensity = prev.intensity[0]
			refVertexWorld = prevVertexWorld
		}

		// --- Joint tracking ---
		newPose, icpOps, rgbOps, err := jointTrack(
			cur, model, refIntensity, refVertexWorld, refPose, intr,
			guess, cfg.ICPWeight, levels, iterations,
		)
		c.ICPOps += icpOps
		c.RGBOps += rgbOps
		if err != nil {
			c.TrackFailures++
			if cfg.Reloc {
				// Fern relocalisation: reset to the most similar keyframe.
				code, fops := ferns.encode(filtered, ds.Frames[i].Intensity)
				c.FernOps += fops
				if e, score, ok := ferns.best(code, frame-1); ok && score < fernReloc {
					pose = e.pose
					c.Relocalization++
				}
			}
		} else {
			pose = newPose
			c.TrackedFrames++
		}

		// --- Local loop closure against the inactive model ---
		if !cfg.OpenLoop && i%loopEvery == 0 {
			inactive := func(s *Surfel) bool {
				return s.Conf >= confTh && frame-s.LastSeen > inactiveWindow
			}
			old, lrops := smap.Render(intr, pose, inactive)
			c.RenderOps += lrops
			corrected, lopsICP, lopsRGB, lerr := jointTrack(
				cur, old, old.intensity, old.vertex, pose, intr,
				pose, cfg.ICPWeight, []int{0}, []int{4},
			)
			c.LoopOps += lopsICP + lopsRGB
			if lerr == nil {
				// Rigid section-blend correction (simplified deformation):
				// move halfway toward the re-registered pose.
				dv, dw := geom.LogSE3(corrected.Mul(pose.Inverse()))
				if dv.Norm() < 0.25 && dw.Norm() < 0.25 && (dv.Norm() > 1e-4 || dw.Norm() > 1e-4) {
					pose = geom.ExpSE3(dv.Scale(0.5), dw.Scale(0.5)).Mul(pose).Orthonormalize()
					c.LoopClosures++
				}
			}
		}

		res.Trajectory[i] = pose

		// --- Fusion ---
		assoc, arops := smap.Render(intr, pose, nil)
		c.RenderOps += arops
		st := smap.Fuse(cur.vertex[0], cur.normal[0], cur.intensity[0], intr,
			pose, assoc, frame, confTh, unstableWindow)
		c.FuseOps += st.ops
		c.SurfelsMerged += st.merged
		c.SurfelsAdded += st.added

		// --- Fern keyframes ---
		if i%fernEvery == 0 {
			code, fops := ferns.encode(filtered, ds.Frames[i].Intensity)
			c.FernOps += fops
			ferns.add(code, pose, frame)
		}

		prev, prevPose = cur, pose
		prevVertexWorld = vertexToWorld(cur.vertex[0], pose)
	}
	c.SurfelsFinal = int64(smap.Len())
	return res, nil
}

// bootstrapFrame seeds the map from the first frame.
func bootstrapFrame(smap *SurfelMap, cur *frameData, intr imgproc.Intrinsics, pose geom.Pose, frame int32, confTh float32, c *Counters) {
	empty := newRenderMaps(intr.W, intr.H)
	st := smap.Fuse(cur.vertex[0], cur.normal[0], cur.intensity[0], intr,
		pose, empty, frame, confTh, 0)
	c.FuseOps += st.ops
	c.SurfelsAdded += st.added
}

// vertexToWorld transforms a camera-frame vertex map to world space.
func vertexToWorld(v *imgproc.VecMap, pose geom.Pose) *imgproc.VecMap {
	out := imgproc.NewVecMap(v.W, v.H)
	for i, p := range v.Pix {
		if p.X != 0 || p.Y != 0 || p.Z != 0 {
			out.Pix[i] = pose.Apply(p)
		}
	}
	return out
}
