package kfusion

import (
	"math"

	"repro/internal/geom"
	"repro/internal/imgproc"
)

// brickShift sets the occupancy granularity: one flag per 2³-voxel brick.
const brickShift = 1

// Volume is the truncated signed distance function (TSDF) voxel grid at the
// heart of KinectFusion. TSDF values are normalized to [-1, 1] (distance to
// the nearest surface divided by the truncation distance µ); weights count
// fused observations up to maxWeight, one byte each, and weight 0 means
// unobserved. A brick's occupancy flag is set once any voxel of the brick or
// of its +1 halo (the next voxel along each axis) is observed, so an
// interpolation cell whose base brick is unoccupied has no observed corner.
type Volume struct {
	Res      int       // voxels per side
	Size     float64   // edge length in meters
	Origin   geom.Vec3 // world position of the (0,0,0) voxel corner
	voxel    float64   // Size / Res
	inv      float64   // 1 / voxel
	tsdf     []float32
	weight   []uint8
	bricks   int    // bricks per side
	occupied []bool // per brick, (z, y, x) order
}

// NewVolume allocates a res³ volume of the given physical size centered at
// center, every voxel unobserved: zeroed TSDF values, weights and occupancy
// flags, the state reset returns a used volume to.
func NewVolume(res int, size float64, center geom.Vec3) *Volume {
	n := res * res * res
	bricks := (res + 1<<brickShift - 1) >> brickShift
	voxel := size / float64(res)
	return &Volume{
		Res:      res,
		Size:     size,
		Origin:   center.Sub(geom.V3(size/2, size/2, size/2)),
		voxel:    voxel,
		inv:      1 / voxel,
		tsdf:     make([]float32, n),
		weight:   make([]uint8, n),
		bricks:   bricks,
		occupied: make([]bool, bricks*bricks*bricks),
	}
}

// VoxelSize returns the edge length of one voxel in meters.
func (v *Volume) VoxelSize() float64 { return v.voxel }

// index returns the flat index of voxel (x, y, z); callers bound-check.
func (v *Volume) index(x, y, z int) int { return (z*v.Res+y)*v.Res + x }

// At returns the TSDF value and weight of voxel (x, y, z), with (1, 0) —
// truncated "far", unobserved — for unobserved and out-of-grid voxels.
func (v *Volume) At(x, y, z int) (float32, float32) {
	if x < 0 || y < 0 || z < 0 || x >= v.Res || y >= v.Res || z >= v.Res {
		return 1, 0
	}
	i := v.index(x, y, z)
	if v.weight[i] == 0 {
		return 1, 0
	}
	return v.tsdf[i], float32(v.weight[i])
}

// setBlend fuses a new normalized TSDF observation into voxel (x, y, z)
// with the running weighted average, capping the weight at maxWeight.
func (v *Volume) setBlend(x, y, z int, val float32) {
	if x < 0 || y < 0 || z < 0 || x >= v.Res || y >= v.Res || z >= v.Res {
		return
	}
	if v.blend(v.index(x, y, z), val) {
		v.occupy(x, y, z)
	}
}

// blend is setBlend on the in-grid voxel at flat index i, and reports
// whether the voxel was unobserved, so that the caller occupies its bricks.
// An unobserved voxel holds TSDF 0, so its first blend stores val exactly as
// it would over the "far" value 1: (t·0 + val)/1 == val for any finite t. A
// byte weight converts to float32 exactly.
func (v *Volume) blend(i int, val float32) (first bool) {
	w := v.weight[i]
	fw := float32(w)
	v.tsdf[i] = (float32(v.tsdf[i]*fw) + val) / (fw + 1)
	if w < maxWeight {
		v.weight[i] = w + 1
	}
	return w == 0
}

// occupy flags the bricks whose cells can read voxel (x, y, z): its own,
// and across each brick face below it the neighbour whose halo it is.
func (v *Volume) occupy(x, y, z int) {
	for bz := max(z-1, 0) >> brickShift; bz <= z>>brickShift; bz++ {
		for by := max(y-1, 0) >> brickShift; by <= y>>brickShift; by++ {
			for bx := max(x-1, 0) >> brickShift; bx <= x>>brickShift; bx++ {
				v.occupied[(bz*v.bricks+by)*v.bricks+bx] = true
			}
		}
	}
}

// reset returns v to the state NewVolume leaves it in. Only a blend makes a
// voxel's TSDF value or weight nonzero, and a voxel's first blend flags its
// own brick, so zeroing the voxels of the flagged bricks (each run of
// flagged bricks along x one row at a time) clears every voxel written since.
func (v *Volume) reset() {
	const side = 1 << brickShift
	r, nb := v.Res, v.bricks
	for bz := range nb {
		for by := range nb {
			flags := v.occupied[(bz*nb+by)*nb:][:nb]
			for bx := 0; bx < nb; {
				if !flags[bx] {
					bx++
					continue
				}
				end := bx + 1
				for end < nb && flags[end] {
					end++
				}
				x0, x1 := bx*side, min(end*side, r)
				for z := bz * side; z < min(bz*side+side, r); z++ {
					for y := by * side; y < min(by*side+side, r); y++ {
						row := (z*r + y) * r
						clear(v.tsdf[row+x0 : row+x1])
						clear(v.weight[row+x0 : row+x1])
					}
				}
				bx = end
			}
		}
	}
	clear(v.occupied)
}

// voxelOf returns the voxel coordinates containing world point p.
func (v *Volume) voxelOf(p geom.Vec3) (int, int, int) {
	q := p.Sub(v.Origin)
	return int(math.Floor(q.X * v.inv)), int(math.Floor(q.Y * v.inv)), int(math.Floor(q.Z * v.inv))
}

// Interp returns the trilinearly interpolated TSDF at world point p; ok is
// false when less than 0.7 of the interpolation mass is observed.
func (v *Volume) Interp(p geom.Vec3) (float64, bool) {
	q := p.Sub(v.Origin).Scale(v.inv).Sub(geom.V3(0.5, 0.5, 0.5))
	x0 := int(math.Floor(q.X))
	y0 := int(math.Floor(q.Y))
	z0 := int(math.Floor(q.Z))
	fx := q.X - float64(x0)
	fy := q.Y - float64(y0)
	fz := q.Z - float64(z0)
	wx := [2]float64{1 - fx, fx}
	wy := [2]float64{1 - fy, fy}
	wz := [2]float64{1 - fz, fz}

	// Each product is rounded by an explicit conversion before it is summed,
	// so that no GOARCH fuses the two into one multiply-add (the Go spec
	// allows that otherwise) and the bits are the same everywhere; blend and
	// Integrate's tables do the same.
	var acc, mass float64
	if r := v.Res; x0 >= 0 && y0 >= 0 && z0 >= 0 && x0 < r-1 && y0 < r-1 && z0 < r-1 {
		// The whole cell is in the grid and within its base brick and that
		// brick's halo: an unoccupied brick means no corner is observed.
		if !v.occupied[((z0>>brickShift)*v.bricks+(y0>>brickShift))*v.bricks+(x0>>brickShift)] {
			return 1, false
		}
		i := v.index(x0, y0, z0)
		for dz := 0; dz < 2; dz++ {
			for dy := 0; dy < 2; dy++ {
				row := i + (dz*r+dy)*r
				for dx := 0; dx < 2; dx++ {
					if v.weight[row+dx] == 0 {
						continue
					}
					wi := float64(wx[dx] * wy[dy] * wz[dz])
					acc += float64(wi * float64(v.tsdf[row+dx]))
					mass += wi
				}
			}
		}
	} else {
		// A cell based outside [-1, Res) along some axis has no corner in the
		// grid: all eight would read (1, 0), an observed mass of 0.
		if x0 < -1 || y0 < -1 || z0 < -1 || x0 >= r || y0 >= r || z0 >= r {
			return 1, false
		}
		for dz := 0; dz < 2; dz++ {
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					t, w := v.At(x0+dx, y0+dy, z0+dz)
					if w == 0 {
						continue
					}
					wi := float64(wx[dx] * wy[dy] * wz[dz])
					acc += float64(wi * float64(t))
					mass += wi
				}
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
	h := v.voxel
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
func (v *Volume) Integrate(depth *imgproc.Map, intr imgproc.Intrinsics, pose geom.Pose, mu float64) int64 {
	vs := v.voxel
	step := float64(vs * 0.5) // rounded before it is added, as in Interp
	band := mu + vs
	camPos := pose.Translation()
	rotT := pose.R.Transpose() // world → camera rotation
	minF := math.Min(intr.Fx, intr.Fy)
	var updates int64

	// A voxel center's camera depth is the third row of
	// rotT·(center − camPos): one term per axis, tabulated here exactly as
	// Mat3.MulVec evaluates it, so a voxel's depth is ax[x] + ay[y] + az[z];
	// the voxel-center offset c is rounded before it is added, as in Interp.
	r := v.Res
	tab := make([]float64, 3*r)
	ax, ay, az := tab[:r], tab[r:2*r], tab[2*r:]
	for i := range r {
		c := float64((float64(i) + 0.5) * vs)
		ax[i] = rotT[6] * (v.Origin.X + c - camPos.X)
		ay[i] = rotT[7] * (v.Origin.Y + c - camPos.Y)
		az[i] = rotT[8] * (v.Origin.Z + c - camPos.Z)
	}

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
					v.setBlend(cx, cy, cz, float32(val))
					updates++
					continue
				}
				// The neighborhood, clipped to the grid; each neighbor's SDF is
				// its own camera depth against this pixel's depth.
				xlo, xhi := max(cx-splat, 0), min(cx+splat, r-1)
				ylo, yhi := max(cy-splat, 0), min(cy+splat, r-1)
				for zz := max(cz-splat, 0); zz <= min(cz+splat, r-1); zz++ {
					for y := ylo; y <= yhi; y++ {
						row := (zz*r + y) * r
						for x := xlo; x <= xhi; x++ {
							sdf := d - (ax[x] + ay[y] + az[zz])
							if sdf < -mu {
								continue
							}
							val := sdf / mu
							if val > 1 {
								val = 1
							}
							if v.blend(row+x, float32(val)) {
								v.occupy(x, y, zz)
							}
							updates++
						}
					}
				}
			}
		}
	}
	return updates
}

// Model is one raycast of the volume from a pose, the reference the next
// tracked frame aligns to: the marching steps it took and the zero crossing
// each pixel's ray found. Its vertex and normal maps are completed from the
// crossings when Maps first reads them.
type Model struct {
	Steps  int64 // marching steps, what the runtime model bills
	vol    *Volume
	vertex *imgproc.VecMap // the crossings (world coordinates); after Maps, those with a normal
	normal *imgproc.VecMap // nil until Maps
}

// Raycast marches one ray per pixel of intr from pose through the volume to
// the first zero crossing of the TSDF, for the next frame's ICP reference.
func (v *Volume) Raycast(intr imgproc.Intrinsics, pose geom.Pose, mu, near, far float64) *Model {
	m := &Model{vol: v, vertex: imgproc.NewVecMap(intr.W, intr.H)}
	camPos := pose.Translation()
	largeStep := math.Max(mu*0.75, v.voxel)
	fineStep := float64(v.voxel * 0.5) // rounded before it is added, as in Interp
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
					m.vertex.Set(px, py, camPos.Add(dirWorld.Scale(tHit)))
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
	m.Steps = steps
	return m
}

// Maps returns the model's vertex and normal maps (world coordinates): each
// crossing whose TSDF gradient is defined and nonzero, with its normalized
// gradient. The first call computes the normals, and drops the crossings
// without one, from the volume as it is then, so the volume must not have
// changed since the raycast; Run reads a model only before the next
// integration, which is followed by a fresh raycast.
func (m *Model) Maps() (vertex, normal *imgproc.VecMap) {
	if m.normal == nil {
		m.normal = imgproc.NewVecMap(m.vertex.W, m.vertex.H)
		for i, p := range m.vertex.Pix {
			if p == (geom.Vec3{}) {
				continue
			}
			n := geom.Vec3{}
			if g, ok := m.vol.Grad(p); ok {
				n = g.Normalized()
			}
			if n == (geom.Vec3{}) {
				m.vertex.Pix[i] = geom.Vec3{}
			}
			m.normal.Pix[i] = n
		}
	}
	return m.vertex, m.normal
}
