// Package sensor synthesizes the RGB-D dataset the benchmarks run on: a
// pinhole depth+intensity camera flying a smooth ground-truth trajectory
// through the procedural living room, with a Kinect-style noise model
// (quadratic-in-depth Gaussian noise, disparity quantization, grazing-angle
// dropout). It is the stand-in for the ICL-NUIM living room trajectory 2
// sequence (see "Simulation substrate" in docs/ARCHITECTURE.md).
package sensor

import (
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/par"
	"repro/internal/scene"
)

// Frame is one synchronized depth + intensity capture.
type Frame struct {
	Depth     *imgproc.Map // meters; 0 = invalid
	Intensity *imgproc.Map // [0, 1]
}

// Dataset is a rendered sequence with ground-truth camera poses
// (camera-to-world).
type Dataset struct {
	Name        string
	Intrinsics  imgproc.Intrinsics
	Frames      []Frame
	GroundTruth []geom.Pose
	Scene       *scene.Scene
}

// NumFrames returns the sequence length.
func (d *Dataset) NumFrames() int { return len(d.Frames) }

// NoiseModel parameterizes the depth sensor error sources.
type NoiseModel struct {
	// Sigma0 is the depth-independent noise floor (meters).
	Sigma0 float64
	// Sigma2 scales the quadratic depth-noise term: σ(z) = Sigma0 + Sigma2·z².
	Sigma2 float64
	// DisparityStep quantizes inverse depth in steps of this size (1/m);
	// 0 disables quantization.
	DisparityStep float64
	// DropoutGrazing is the dropout probability at fully grazing incidence;
	// dropout scales with (1 − |n·v|).
	DropoutGrazing float64
	// MaxRange invalidates returns beyond this distance (meters); 0 selects 8.
	MaxRange float64
	// Seed drives the per-dataset noise stream.
	Seed int64
}

// KinectNoise returns the default noise model, scaled by amplify (1 = a
// plausible Kinect; the DSE calibration uses values slightly above 1 so the
// ATE response lands in the paper's 3–6 cm band).
func KinectNoise(amplify float64) NoiseModel {
	return NoiseModel{
		Sigma0:         0.0015 * amplify,
		Sigma2:         0.0019 * amplify,
		DisparityStep:  0.0006 * amplify,
		DropoutGrazing: 0.65,
		MaxRange:       4.5,
		Seed:           1,
	}
}

// Options configures dataset generation.
type Options struct {
	Width, Height int
	Frames        int
	Noise         NoiseModel
	// Trajectory selects the camera path; nil uses LivingRoomTrajectory2.
	Trajectory func(n int) []geom.Pose
	Name       string
}

// LivingRoomTrajectory2 returns n camera-to-world poses of a smooth orbit
// through the living room: the camera circles the room center at varying
// radius and height while aiming at a slowly moving target, mimicking the
// hand-held sweep of the ICL-NUIM "lr kt2" sequence. Inter-frame motion is
// small (≈1–2 cm, <1°) so ICP-based trackers are well-conditioned.
func LivingRoomTrajectory2(n int) []geom.Pose {
	poses := make([]geom.Pose, n)
	for i := range poses {
		t := float64(i) / float64(max(n-1, 1)) // 0 … 1
		ang := 2 * math.Pi * (0.05 + 0.55*t)   // ~200° sweep
		radius := 1.05 + 0.25*math.Sin(2*math.Pi*t*1.3)
		height := 1.25 + 0.18*math.Sin(2*math.Pi*t*0.9+1.0)
		pos := geom.V3(radius*math.Cos(ang), height, radius*math.Sin(ang))
		target := geom.V3(
			0.45*math.Cos(ang+2.6),
			0.7+0.25*math.Sin(2*math.Pi*t*0.7),
			0.45*math.Sin(ang+2.6),
		)
		poses[i] = LookAt(pos, target, geom.V3(0, 1, 0))
	}
	return poses
}

// TrajectorySlice adapts a trajectory generator so that a short dataset of
// n frames covers only the first n poses of a nominal total-frame sequence,
// keeping per-frame motion realistic (tests use 20-frame datasets with the
// inter-frame motion of the full 100-frame sweep).
func TrajectorySlice(base func(int) []geom.Pose, total int) func(int) []geom.Pose {
	return func(n int) []geom.Pose {
		if n > total {
			total = n
		}
		return base(total)[:n]
	}
}

// LookAt builds a camera-to-world pose at eye looking toward target, using
// the camera convention x-right, y-down, z-forward.
func LookAt(eye, target, up geom.Vec3) geom.Pose {
	fwd := target.Sub(eye).Normalized()
	right := fwd.Cross(up).Normalized()
	if right.Norm() < 1e-9 {
		right = geom.V3(1, 0, 0)
	}
	down := fwd.Cross(right).Normalized()
	// Columns of R are the camera axes expressed in world coordinates.
	r := geom.Mat3{
		right.X, down.X, fwd.X,
		right.Y, down.Y, fwd.Y,
		right.Z, down.Z, fwd.Z,
	}
	return geom.Pose{R: r, T: eye}
}

// Generate renders the dataset described by opts in the scene.LivingRoom
// world.
func Generate(opts Options) *Dataset {
	if opts.Width <= 0 {
		opts.Width = 160
	}
	if opts.Height <= 0 {
		opts.Height = 120
	}
	if opts.Frames <= 0 {
		opts.Frames = 100
	}
	if opts.Trajectory == nil {
		opts.Trajectory = LivingRoomTrajectory2
	}
	if opts.Name == "" {
		opts.Name = "synthetic-living-room-traj2"
	}
	if opts.Noise.MaxRange <= 0 {
		opts.Noise.MaxRange = 8
	}

	intr := imgproc.StandardIntrinsics(opts.Width, opts.Height)
	gt := opts.Trajectory(opts.Frames)
	ds := &Dataset{
		Name:        opts.Name,
		Intrinsics:  intr,
		Frames:      make([]Frame, opts.Frames),
		GroundTruth: gt,
		Scene:       scene.LivingRoom(),
	}
	for i := range ds.Frames {
		ds.Frames[i] = Frame{Depth: imgproc.NewMap(intr.W, intr.H), Intensity: imgproc.NewMap(intr.W, intr.H)}
	}
	// One dynamic schedule over every (frame, row): rows cost very different
	// amounts (a row of far wall against a row of furniture), so per-frame
	// halves would leave a worker idle. Each row draws its noise from its own
	// seeded stream, so the bits do not depend on the schedule.
	par.ForWorkers(opts.Frames*intr.H, par.MaxWorkers(), func(r int) {
		i, y := r/intr.H, r%intr.H
		renderRow(ds.Frames[i], y, ds.Scene, intr, gt[i], opts.Noise, opts.Noise.Seed+int64(i)*7919)
	})
	return ds
}

// renderRow sphere-traces row y of frame f (seeded per frame by seed) and
// applies the noise model.
func renderRow(f Frame, y int, sc *scene.Scene, intr imgproc.Intrinsics, pose geom.Pose, nm NoiseModel, seed int64) {
	rng := rand.New(rand.NewSource(seed + int64(y)*104729))
	for x := 0; x < intr.W; x++ {
		dirCam := intr.Unproject(x, y)
		invZ := 1 / dirCam.Norm() // cos of the ray-to-axis angle
		dirWorld := pose.Rotate(dirCam).Normalized()

		hit, z, albedo, normal := trace(sc, pose.T, dirWorld, nm.MaxRange/invZ)
		if !hit {
			continue
		}
		// Convert ray length to projective depth (camera z).
		zDepth := z * invZ
		// Shading: headlight diffuse plus ambient.
		view := dirWorld.Scale(-1)
		diffuse := math.Max(normal.Dot(view), 0)
		f.Intensity.Set(x, y, float32(clamp01(albedo*(0.25+0.75*diffuse))))

		// Noise model.
		zn := applyNoise(zDepth, normal, view, nm, rng)
		if zn <= 0 || zn > nm.MaxRange {
			continue
		}
		f.Depth.Set(x, y, float32(zn))
	}
}

// trace sphere-traces from origin along dir and returns the hit state, ray
// length, surface albedo and normal. The march reads distances only; the
// albedo is looked up once, at the hit.
func trace(sc *scene.Scene, origin, dir geom.Vec3, tMax float64) (bool, float64, float64, geom.Vec3) {
	const eps = 1.5e-3
	t := 0.15
	for step := 0; step < 192 && t < tMax; step++ {
		p := origin.Add(dir.Scale(t))
		d := sc.Dist(p)
		if d < eps {
			_, albedo := sc.DistAlbedo(p)
			return true, t, albedo, sc.Normal(p)
		}
		// Conservative advance: SDF unions are exact here, full step is safe.
		t += d
	}
	return false, 0, 0, geom.Vec3{}
}

func applyNoise(z float64, normal, view geom.Vec3, nm NoiseModel, rng *rand.Rand) float64 {
	// Grazing-incidence dropout.
	cosI := math.Abs(normal.Dot(view))
	if nm.DropoutGrazing > 0 {
		if rng.Float64() < nm.DropoutGrazing*math.Pow(1-cosI, 3) {
			return 0
		}
	}
	// Gaussian depth noise growing quadratically with distance.
	sigma := nm.Sigma0 + nm.Sigma2*z*z
	zn := z + rng.NormFloat64()*sigma
	// Disparity quantization.
	if nm.DisparityStep > 0 && zn > 0.05 {
		d := 1 / zn
		d = math.Round(d/nm.DisparityStep) * nm.DisparityStep
		if d > 1e-6 {
			zn = 1 / d
		}
	}
	return zn
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
