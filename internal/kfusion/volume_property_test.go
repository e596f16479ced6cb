package kfusion

import (
	"math"
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
			vol.Integrate(depth, intr, pose, 0.05+rng.Float64()*0.4)
		}
		for x := 0; x < vol.Res; x++ {
			for y := 0; y < vol.Res; y++ {
				for z := 0; z < vol.Res; z++ {
					tv, w := vol.At(x, y, z)
					if tv < -1-1e-6 || tv > 1+1e-6 {
						return false
					}
					if w < 0 || w > maxWeight {
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
				vol.setBlend(x, y, z, float32(rng.Float64()*2-1))
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

// interpReference is trilinear interpolation spelled out on At: the eight
// corners in (dz, dy, dx) order, unobserved and out-of-grid corners skipped.
// It reports whether the cell lies wholly inside the grid.
func interpReference(v *Volume, p geom.Vec3) (val float64, ok, inside bool) {
	inv := 1 / v.voxel
	q := p.Sub(v.Origin).Scale(inv).Sub(geom.V3(0.5, 0.5, 0.5))
	x0, y0, z0 := int(math.Floor(q.X)), int(math.Floor(q.Y)), int(math.Floor(q.Z))
	f := [3]float64{q.X - float64(x0), q.Y - float64(y0), q.Z - float64(z0)}
	w := func(axis, d int) float64 {
		if d == 0 {
			return 1 - f[axis]
		}
		return f[axis]
	}
	var acc, mass float64
	for dz := 0; dz < 2; dz++ {
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				t, wt := v.At(x0+dx, y0+dy, z0+dz)
				if wt == 0 {
					continue
				}
				wi := w(0, dx) * w(1, dy) * w(2, dz)
				acc += wi * float64(t)
				mass += wi
			}
		}
	}
	inside = x0 >= 0 && y0 >= 0 && z0 >= 0 && x0+1 < v.Res && y0+1 < v.Res && z0+1 < v.Res
	if mass < 0.7 {
		return 1, false, inside
	}
	return acc / mass, true, inside
}

// TestInterpMatchesCornerReference: after random integrations, Interp is
// bit-equal to interpReference at random points — inside the grid, where it
// reads corners by flat offset behind the brick occupancy table, and across
// the grid's edge.
func TestInterpMatchesCornerReference(t *testing.T) {
	intr := imgproc.StandardIntrinsics(24, 18)
	rng := rand.New(rand.NewSource(3))
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
		vol.Integrate(depth, intr, pose, 0.05+rng.Float64()*0.4)
	}
	// Observe two faces outright so cells across the edge have mass.
	last := vol.Res - 1
	for a := 0; a < vol.Res; a++ {
		for b := 0; b < vol.Res; b++ {
			vol.setBlend(0, a, b, float32(rng.Float64()*2-1))
			vol.setBlend(a, b, last, float32(rng.Float64()*2-1))
		}
	}
	var count [2][2]int // [inside][ok]
	for i := 0; i < 50000; i++ {
		u := geom.V3(rng.Float64(), rng.Float64(), rng.Float64()).Scale(1.1 * vol.Size)
		p := vol.Origin.Add(u).Sub(geom.V3(0.05, 0.05, 0.05).Scale(vol.Size))
		want, wantOK, inside := interpReference(vol, p)
		got, ok := vol.Interp(p)
		if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Interp(%v) = (%v, %v), reference (%v, %v), inside %v", p, got, ok, want, wantOK, inside)
		}
		count[b2i(inside)][b2i(ok)]++
	}
	for inside := range count {
		for ok := range count[inside] {
			if count[inside][ok] < 100 {
				t.Fatalf("only %d samples with inside=%v ok=%v; counts %v", count[inside][ok], inside == 1, ok == 1, count)
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
	res, err := run(&ds2, testConfig())
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
