package kfusion

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/sensor"
)

// TestTSDFBoundedProperty: whatever is integrated, TSDF values stay in
// [-1, 1] and weights stay non-negative and capped.
func TestTSDFBoundedProperty(t *testing.T) {
	intr := imgproc.StandardIntrinsics(24, 18)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vol := NewVolume(24, 2.4, geom.V3(0, 0, 1.2))
		for pass := 0; pass < 3; pass++ {
			depth := imgproc.NewMap(24, 18)
			for i := range depth.Pix {
				if rng.Float64() < 0.8 {
					depth.Pix[i] = float32(0.5 + rng.Float64()*1.5)
				}
			}
			pose := geom.Pose{
				R: geom.ExpSO3(geom.V3(rng.NormFloat64()*0.1, rng.NormFloat64()*0.1, rng.NormFloat64()*0.1)),
				T: geom.V3(rng.NormFloat64()*0.2, rng.NormFloat64()*0.2, rng.NormFloat64()*0.2),
			}
			vol.Integrate(depth, intr, pose, 0.05+rng.Float64()*0.4, 20)
		}
		for x := 0; x < vol.Res; x++ {
			for y := 0; y < vol.Res; y++ {
				for z := 0; z < vol.Res; z++ {
					tv, w := vol.At(x, y, z)
					if tv < -1-1e-6 || tv > 1+1e-6 {
						return false
					}
					if w < 0 || w > 20 {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestInterpWithinVoxelBounds: trilinear interpolation never exceeds the
// extreme TSDF values of its corner voxels.
func TestInterpWithinVoxelBounds(t *testing.T) {
	vol := NewVolume(8, 0.8, geom.Vec3{})
	rng := rand.New(rand.NewSource(2))
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			for z := 0; z < 8; z++ {
				vol.setBlend(x, y, z, float32(rng.Float64()*2-1), 10)
			}
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := geom.V3(r.Float64()*0.6+0.1, r.Float64()*0.6+0.1, r.Float64()*0.6+0.1)
		v, ok := vol.Interp(p)
		if !ok {
			return true
		}
		return v >= -1.000001 && v <= 1.000001
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineAllInvalidDepth: a dataset whose depth is entirely invalid
// must not crash; tracking fails gracefully and the trajectory stays at
// the initial pose.
func TestPipelineAllInvalidDepth(t *testing.T) {
	ds2 := *testDataset // shallow copy, then replace all frames with blanks
	ds2.Frames = nil
	for range testDataset.Frames {
		ds2.Frames = append(ds2.Frames, sensor.Frame{
			Depth:     imgproc.NewMap(ds2.Intrinsics.W, ds2.Intrinsics.H),
			Intensity: imgproc.NewMap(ds2.Intrinsics.W, ds2.Intrinsics.H),
		})
	}
	res, err := Run(&ds2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Trajectory {
		if res.Trajectory[i].T != ds2.GroundTruth[0].T {
			t.Fatal("pose should stay at the initial pose with no data")
		}
	}
	if res.Counters.TrackedFrames != 0 {
		t.Fatal("tracking should never succeed on empty frames")
	}
}
