package kfusion

import (
	"math"

	"repro/internal/geom"
	"repro/internal/imgproc"
)

// Volume is the truncated signed distance function (TSDF) voxel grid at the
// heart of KinectFusion. TSDF values are normalized to [-1, 1] (distance to
// the nearest surface divided by the truncation distance µ); weights count
// fused observations.
type Volume struct {
	Res    int       // voxels per side
	Size   float64   // edge length in meters
	Origin geom.Vec3 // world position of the (0,0,0) voxel corner
	tsdf   []float32
	weight []float32
}

// NewVolume allocates a res³ volume of the given physical size centered at
// center.
func NewVolume(res int, size float64, center geom.Vec3) *Volume {
	n := res * res * res
	v := &Volume{
		Res:    res,
		Size:   size,
		Origin: center.Sub(geom.V3(size/2, size/2, size/2)),
		tsdf:   make([]float32, n),
		weight: make([]float32, n),
	}
	for i := range v.tsdf {
		v.tsdf[i] = 1 // truncated "far" everywhere until observed
	}
	return v
}

// VoxelSize returns the edge length of one voxel in meters.
func (v *Volume) VoxelSize() float64 { return v.Size / float64(v.Res) }

// index returns the flat index of voxel (x, y, z); callers bound-check.
func (v *Volume) index(x, y, z int) int { return (z*v.Res+y)*v.Res + x }

// At returns the TSDF value and weight of voxel (x, y, z), with (1, 0) for
// out-of-grid coordinates.
func (v *Volume) At(x, y, z int) (float32, float32) {
	if x < 0 || y < 0 || z < 0 || x >= v.Res || y >= v.Res || z >= v.Res {
		return 1, 0
	}
	i := v.index(x, y, z)
	return v.tsdf[i], v.weight[i]
}

// setBlend fuses a new normalized TSDF observation into voxel (x, y, z)
// with the running weighted average, capping the weight at maxWeight.
func (v *Volume) setBlend(x, y, z int, val float32, maxWeight float32) {
	if x < 0 || y < 0 || z < 0 || x >= v.Res || y >= v.Res || z >= v.Res {
		return
	}
	i := v.index(x, y, z)
	w := v.weight[i]
	v.tsdf[i] = (v.tsdf[i]*w + val) / (w + 1)
	if w < maxWeight {
		v.weight[i] = w + 1
	}
}

// voxelOf returns the voxel coordinates containing world point p.
func (v *Volume) voxelOf(p geom.Vec3) (int, int, int) {
	inv := 1 / v.VoxelSize()
	q := p.Sub(v.Origin)
	return int(math.Floor(q.X * inv)), int(math.Floor(q.Y * inv)), int(math.Floor(q.Z * inv))
}

// Interp returns the trilinearly interpolated TSDF at world point p; ok is
// false when any contributing voxel is unobserved or out of grid.
func (v *Volume) Interp(p geom.Vec3) (float64, bool) {
	inv := 1 / v.VoxelSize()
	q := p.Sub(v.Origin).Scale(inv).Sub(geom.V3(0.5, 0.5, 0.5))
	x0 := int(math.Floor(q.X))
	y0 := int(math.Floor(q.Y))
	z0 := int(math.Floor(q.Z))
	fx := q.X - float64(x0)
	fy := q.Y - float64(y0)
	fz := q.Z - float64(z0)

	var acc, mass float64
	for dz := 0; dz < 2; dz++ {
		wz := fz
		if dz == 0 {
			wz = 1 - fz
		}
		for dy := 0; dy < 2; dy++ {
			wy := fy
			if dy == 0 {
				wy = 1 - fy
			}
			for dx := 0; dx < 2; dx++ {
				wx := fx
				if dx == 0 {
					wx = 1 - fx
				}
				t, w := v.At(x0+dx, y0+dy, z0+dz)
				if w == 0 {
					continue
				}
				wi := wx * wy * wz
				acc += wi * float64(t)
				mass += wi
			}
		}
	}
	// Tolerate partially-observed cells (sparse ray coverage at high
	// compute-size ratios) as long as most interpolation mass is observed.
	if mass < 0.7 {
		return 1, false
	}
	return acc / mass, true
}

// Grad returns the TSDF gradient at world point p (unnormalized surface
// normal direction); ok is false near unobserved space.
func (v *Volume) Grad(p geom.Vec3) (geom.Vec3, bool) {
	h := v.VoxelSize()
	xp, okA := v.Interp(p.Add(geom.V3(h, 0, 0)))
	xm, okB := v.Interp(p.Sub(geom.V3(h, 0, 0)))
	yp, okC := v.Interp(p.Add(geom.V3(0, h, 0)))
	ym, okD := v.Interp(p.Sub(geom.V3(0, h, 0)))
	zp, okE := v.Interp(p.Add(geom.V3(0, 0, h)))
	zm, okF := v.Interp(p.Sub(geom.V3(0, 0, h)))
	if !(okA && okB && okC && okD && okE && okF) {
		return geom.Vec3{}, false
	}
	return geom.V3(xp-xm, yp-ym, zp-zm), true
}

// Integrate fuses a depth map taken from pose (camera-to-world) into the
// volume with truncation distance mu. The implementation updates only the
// voxels within the truncation band along each pixel ray; runtime is billed
// for the full res³ frustum sweep separately (docs/ARCHITECTURE.md,
// "Simulation substrate"). It returns the number of voxel updates actually
// performed.
func (v *Volume) Integrate(depth *imgproc.Map, intr imgproc.Intrinsics, pose geom.Pose, mu float64, maxWeight float32) int64 {
	vs := v.VoxelSize()
	step := vs * 0.5
	band := mu + vs
	camPos := pose.Translation()
	rotT := pose.R.Transpose() // world → camera rotation
	minF := math.Min(intr.Fx, intr.Fy)
	var updates int64

	for py := 0; py < depth.H; py++ {
		for px := 0; px < depth.W; px++ {
			d := float64(depth.At(px, py))
			if d <= 0 {
				continue
			}
			// World-space ray parameterized by camera depth z:
			// X(z) = camPos + R·dirCam·z.
			dirWorld := pose.Rotate(intr.Unproject(px, py))
			z0 := d - band
			if z0 < 0.2 {
				z0 = 0.2
			}
			z1 := d + band
			// When the lateral pixel pitch at this depth exceeds the voxel
			// pitch (high compute-size ratios), splat a small neighborhood
			// so the band has no unobserved gaps between ray tubes.
			splat := int(d/minF/(2*vs) + 0.25)
			if splat > 2 {
				splat = 2
			}
			for z := z0; z <= z1; z += step {
				p := camPos.Add(dirWorld.Scale(z))
				cx, cy, cz := v.voxelOf(p)
				if splat == 0 {
					sdf := d - z // projective signed distance along the ray
					if sdf < -mu {
						continue
					}
					val := sdf / mu
					if val > 1 {
						val = 1
					}
					v.setBlend(cx, cy, cz, float32(val), maxWeight)
					updates++
					continue
				}
				for dz := -splat; dz <= splat; dz++ {
					for dy := -splat; dy <= splat; dy++ {
						for dx := -splat; dx <= splat; dx++ {
							x, y, zz := cx+dx, cy+dy, cz+dz
							if x < 0 || y < 0 || zz < 0 || x >= v.Res || y >= v.Res || zz >= v.Res {
								continue
							}
							// Correct projective SDF for the neighbor: its
							// own camera depth against this pixel's depth.
							center := v.Origin.Add(geom.V3(
								(float64(x)+0.5)*vs,
								(float64(y)+0.5)*vs,
								(float64(zz)+0.5)*vs,
							))
							zc := rotT.MulVec(center.Sub(camPos)).Z
							sdf := d - zc
							if sdf < -mu {
								continue
							}
							val := sdf / mu
							if val > 1 {
								val = 1
							}
							v.setBlend(x, y, zz, float32(val), maxWeight)
							updates++
						}
					}
				}
			}
		}
	}
	return updates
}

// Raycast renders vertex and normal maps (world coordinates) of the zero
// crossing of the TSDF as seen from pose, for the next frame's ICP
// reference. It returns the maps and the number of marching steps taken.
func (v *Volume) Raycast(intr imgproc.Intrinsics, pose geom.Pose, mu, near, far float64) (*imgproc.VecMap, *imgproc.VecMap, int64) {
	vertex := imgproc.NewVecMap(intr.W, intr.H)
	normal := imgproc.NewVecMap(intr.W, intr.H)
	camPos := pose.Translation()
	largeStep := math.Max(mu*0.75, v.VoxelSize())
	fineStep := v.VoxelSize() * 0.5
	var steps int64

	for py := 0; py < intr.H; py++ {
		for px := 0; px < intr.W; px++ {
			dirWorld := pose.Rotate(intr.Unproject(px, py))
			t := near
			prevVal := 1.0
			prevOK := false
			prevT := t
			for t < far {
				p := camPos.Add(dirWorld.Scale(t))
				val, ok := v.Interp(p)
				steps++
				if ok && prevOK && prevVal > 0 && val <= 0 {
					// Zero crossing: interpolate the exact depth.
					tHit := prevT + (t-prevT)*prevVal/(prevVal-val)
					hit := camPos.Add(dirWorld.Scale(tHit))
					if g, gok := v.Grad(hit); gok {
						n := g.Normalized()
						if n != (geom.Vec3{}) {
							vertex.Set(px, py, hit)
							normal.Set(px, py, n)
						}
					}
					break
				}
				prevVal, prevOK, prevT = val, ok, t
				// March fast through far/unknown space, slow near surfaces.
				if ok && val < 0.5 {
					t += fineStep
				} else {
					t += largeStep
				}
			}
		}
	}
	return vertex, normal, steps
}
