package sensor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// smallDataset renders a tiny sequence once for the whole test file.
var smallDataset = Generate(Options{
	Width: 48, Height: 36, Frames: 8,
	Noise: KinectNoise(1),
})

func TestGenerateShape(t *testing.T) {
	ds := smallDataset
	if ds.NumFrames() != 8 {
		t.Fatalf("frames = %d", ds.NumFrames())
	}
	if len(ds.GroundTruth) != 8 {
		t.Fatalf("gt poses = %d", len(ds.GroundTruth))
	}
	if ds.Intrinsics.W != 48 || ds.Intrinsics.H != 36 {
		t.Fatal("intrinsics mismatch")
	}
	for i, f := range ds.Frames {
		if f.Depth.W != 48 || f.Depth.H != 36 || f.Intensity.W != 48 {
			t.Fatalf("frame %d wrong size", i)
		}
	}
}

func TestDepthPlausible(t *testing.T) {
	// Most pixels should see surfaces between 0.3m and 4.5m; the large
	// majority must be valid.
	f := smallDataset.Frames[0]
	valid, total := 0, 0
	for _, d := range f.Depth.Pix {
		total++
		if d > 0 {
			valid++
			if d < 0.15 || d > 4.6 {
				t.Fatalf("depth %v out of plausible range", d)
			}
		}
	}
	if float64(valid)/float64(total) < 0.7 {
		t.Fatalf("only %d/%d pixels valid", valid, total)
	}
}

func TestIntensityRange(t *testing.T) {
	for _, f := range smallDataset.Frames {
		for _, v := range f.Intensity.Pix {
			if v < 0 || v > 1 {
				t.Fatalf("intensity %v out of [0,1]", v)
			}
		}
	}
}

func TestIntensityHasGradients(t *testing.T) {
	// The photometric tracker needs texture: intensity variance must be
	// clearly non-zero.
	f := smallDataset.Frames[0]
	mean := 0.0
	for _, v := range f.Intensity.Pix {
		mean += float64(v)
	}
	mean /= float64(len(f.Intensity.Pix))
	variance := 0.0
	for _, v := range f.Intensity.Pix {
		variance += (float64(v) - mean) * (float64(v) - mean)
	}
	variance /= float64(len(f.Intensity.Pix))
	if variance < 1e-3 {
		t.Fatalf("intensity variance %v too low for photometric tracking", variance)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Generate(Options{Width: 32, Height: 24, Frames: 2, Noise: KinectNoise(1)})
	b := Generate(Options{Width: 32, Height: 24, Frames: 2, Noise: KinectNoise(1)})
	for i := range a.Frames {
		for j := range a.Frames[i].Depth.Pix {
			if a.Frames[i].Depth.Pix[j] != b.Frames[i].Depth.Pix[j] {
				t.Fatal("generation not deterministic")
			}
		}
	}
}

func TestNoiseIncreasesWithAmplify(t *testing.T) {
	clean := Generate(Options{Width: 32, Height: 24, Frames: 1,
		Noise: NoiseModel{MaxRange: 4.5, Seed: 1}}) // zero noise terms
	noisy := Generate(Options{Width: 32, Height: 24, Frames: 1, Noise: KinectNoise(3)})
	// Compare against clean depth: noisy must deviate more.
	dev := 0.0
	n := 0
	for i := range clean.Frames[0].Depth.Pix {
		c := clean.Frames[0].Depth.Pix[i]
		m := noisy.Frames[0].Depth.Pix[i]
		if c > 0 && m > 0 {
			dev += math.Abs(float64(c - m))
			n++
		}
	}
	if n == 0 {
		t.Fatal("no overlapping valid pixels")
	}
	if dev/float64(n) < 1e-4 {
		t.Fatalf("amplified noise deviation %v too small", dev/float64(n))
	}
}

func TestCleanDatasetNoiseFree(t *testing.T) {
	a := Generate(Options{Width: 32, Height: 24, Frames: 1,
		Noise: NoiseModel{MaxRange: 4.5, Seed: 1}})
	b := Generate(Options{Width: 32, Height: 24, Frames: 1,
		Noise: NoiseModel{MaxRange: 4.5, Seed: 99}}) // different seed, no noise
	for i := range a.Frames[0].Depth.Pix {
		if a.Frames[0].Depth.Pix[i] != b.Frames[0].Depth.Pix[i] {
			t.Fatal("zero noise model must be seed-independent")
		}
	}
}

func TestTrajectorySmoothness(t *testing.T) {
	poses := LivingRoomTrajectory2(100)
	for i := 1; i < len(poses); i++ {
		dt := geom.Distance(poses[i-1], poses[i])
		dr := geom.RotationAngle(poses[i-1], poses[i])
		if dt > 0.05 {
			t.Fatalf("frame %d translation step %v too large for ICP", i, dt)
		}
		if dr > 0.06 {
			t.Fatalf("frame %d rotation step %v rad too large", i, dr)
		}
	}
}

func TestTrajectoryInsideRoom(t *testing.T) {
	for _, p := range LivingRoomTrajectory2(60) {
		pos := p.Translation()
		if math.Abs(pos.X) > 2.3 || math.Abs(pos.Z) > 1.8 || pos.Y < 0.5 || pos.Y > 2.2 {
			t.Fatalf("camera leaves the safe region: %v", pos)
		}
	}
}

func TestLookAt(t *testing.T) {
	eye := geom.V3(0, 1, 0)
	target := geom.V3(0, 1, 2)
	p := LookAt(eye, target, geom.V3(0, 1, 0))
	// Camera z (forward) maps to world +z here.
	fwd := p.Rotate(geom.V3(0, 0, 1))
	if fwd.Sub(geom.V3(0, 0, 1)).Norm() > 1e-9 {
		t.Fatalf("forward = %v", fwd)
	}
	// R must be a rotation.
	if math.Abs(p.R.Det()-1) > 1e-9 {
		t.Fatalf("det = %v", p.R.Det())
	}
	if p.Translation() != eye {
		t.Fatal("translation must be the eye position")
	}
}

func TestDepthConsistentWithGroundTruth(t *testing.T) {
	// Unproject a valid noiseless depth pixel into world space: the scene
	// SDF there must be ≈ 0.
	ds := Generate(Options{Width: 48, Height: 36, Frames: 1,
		Noise: NoiseModel{MaxRange: 4.5, Seed: 1}})
	f := ds.Frames[0]
	pose := ds.GroundTruth[0]
	checked := 0
	for y := 4; y < 32 && checked < 30; y += 3 {
		for x := 4; x < 44 && checked < 30; x += 5 {
			d := float64(f.Depth.At(x, y))
			if d <= 0 {
				continue
			}
			pCam := ds.Intrinsics.Unproject(x, y).Scale(d)
			pWorld := pose.Apply(pCam)
			if sd := math.Abs(ds.Scene.Dist(pWorld)); sd > 0.02 {
				t.Fatalf("pixel (%d,%d): surface distance %v", x, y, sd)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatal("too few valid pixels checked")
	}
}

func TestDefaultOptions(t *testing.T) {
	ds := Generate(Options{Frames: 1, Noise: KinectNoise(1)})
	if ds.Intrinsics.W != 160 || ds.Intrinsics.H != 120 {
		t.Fatalf("default resolution = %dx%d", ds.Intrinsics.W, ds.Intrinsics.H)
	}
	if ds.Name == "" {
		t.Fatal("default name empty")
	}
}

// testScale is slambench's "test" dataset (which this package cannot import):
// 80×60, 30 frames of the 100-frame sweep, noise amplified 2×.
func testScale() Options {
	return Options{
		Width: 80, Height: 60, Frames: 30,
		Noise:      KinectNoise(2),
		Trajectory: TrajectorySlice(LivingRoomTrajectory2, 100),
	}
}

// cutScale is the performance ledger's KFusion cut of the test scale:
// 60×45 over 10 frames.
func cutScale() Options {
	o := testScale()
	o.Width, o.Height, o.Frames = 60, 45, 10
	return o
}

// datasetDigest hashes every depth and intensity bit of every frame.
func datasetDigest(t testing.TB, ds *Dataset) string {
	h := sha256.New()
	for _, f := range ds.Frames {
		for _, m := range [][]float32{f.Depth.Pix, f.Intensity.Pix} {
			if err := binary.Write(h, binary.LittleEndian, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDatasetDigest pins the rendered bits of the test scale and of the
// ledger's cut, so a faster renderer must render the same dataset.
func TestDatasetDigest(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		want string
	}{
		{"cut", cutScale(), "3239643d2e2958c71bbd3549ac91366d207775dbc69396143681f6ac24b725ba"},
		{"test", testScale(), "e89cc44abbcb7eeb4ff24e900079aa17b6dc532c6c2087c28fed8c7ab93645f8"},
	} {
		if got := datasetDigest(t, Generate(c.opts)); got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestGenerateIndependentOfWorkers renders the cut on one and on four
// threads: the schedule must not reach the bits.
func TestGenerateIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := datasetDigest(t, Generate(cutScale()))
	runtime.GOMAXPROCS(4)
	if four := datasetDigest(t, Generate(cutScale())); four != one {
		t.Fatalf("digest at GOMAXPROCS 4 = %s, at 1 = %s", four, one)
	}
}

func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		name string
		opts Options
	}{{"cut", cutScale()}, {"test", testScale()}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = Generate(c.opts)
			}
		})
	}
}

func BenchmarkRenderFrame64x48(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Generate(Options{Width: 64, Height: 48, Frames: 1, Noise: KinectNoise(1)})
	}
}
