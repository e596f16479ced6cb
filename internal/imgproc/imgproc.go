// Package imgproc provides the image containers and kernels shared by the
// SLAM pipelines: depth and intensity maps, the bilateral filter of the
// KFusion preprocessing stage, block-average resizing ("compute size
// ratio"), image pyramids, and vertex/normal map computation.
//
// Depth maps use 0 to mean "invalid" (no measurement), matching the Kinect
// convention; every kernel propagates invalidity.
package imgproc

import (
	"math"

	"repro/internal/geom"
)

// Map is a single-channel float32 image (depth in meters or intensity in
// [0,1]).
type Map struct {
	W, H int
	Pix  []float32
}

// NewMap allocates a w×h map of zeros.
func NewMap(w, h int) *Map {
	return &Map{W: w, H: h, Pix: make([]float32, w*h)}
}

// At returns the pixel at (x, y) without bounds checking beyond the slice's.
func (m *Map) At(x, y int) float32 { return m.Pix[y*m.W+x] }

// Set stores v at (x, y).
func (m *Map) Set(x, y int, v float32) { m.Pix[y*m.W+x] = v }

// Clone returns a deep copy of m.
func (m *Map) Clone() *Map {
	out := NewMap(m.W, m.H)
	copy(out.Pix, m.Pix)
	return out
}

// VecMap is a three-channel image of 3-D vectors (vertex or normal maps).
// The zero vector marks invalid entries.
type VecMap struct {
	W, H int
	Pix  []geom.Vec3
}

// NewVecMap allocates a w×h vector map.
func NewVecMap(w, h int) *VecMap {
	return &VecMap{W: w, H: h, Pix: make([]geom.Vec3, w*h)}
}

// At returns the vector at (x, y).
func (m *VecMap) At(x, y int) geom.Vec3 { return m.Pix[y*m.W+x] }

// Set stores v at (x, y).
func (m *VecMap) Set(x, y int, v geom.Vec3) { m.Pix[y*m.W+x] = v }

// ValidAt reports whether the entry at (x, y) is inside the image and
// non-zero.
func (m *VecMap) ValidAt(x, y int) bool {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		return false
	}
	v := m.Pix[y*m.W+x]
	return v.X != 0 || v.Y != 0 || v.Z != 0
}

// Intrinsics is a pinhole camera model.
type Intrinsics struct {
	W, H           int
	Fx, Fy, Cx, Cy float64
}

// StandardIntrinsics returns Kinect-like intrinsics for a w×h image
// (58° horizontal field of view).
func StandardIntrinsics(w, h int) Intrinsics {
	f := float64(w) / (2 * math.Tan(58.0/2*math.Pi/180))
	return Intrinsics{
		W: w, H: h,
		Fx: f, Fy: f,
		Cx: float64(float64(w)/2) - 0.5,
		Cy: float64(float64(h)/2) - 0.5,
	}
}

// Scaled returns the intrinsics of the image downscaled by integer factor r.
func (k Intrinsics) Scaled(r int) Intrinsics {
	if r <= 1 {
		return k
	}
	fr := float64(r)
	return Intrinsics{
		W: k.W / r, H: k.H / r,
		Fx: k.Fx / fr, Fy: k.Fy / fr,
		Cx: float64((k.Cx+0.5)/fr) - 0.5,
		Cy: float64((k.Cy+0.5)/fr) - 0.5,
	}
}

// Halved returns the intrinsics of the next pyramid level.
func (k Intrinsics) Halved() Intrinsics { return k.Scaled(2) }

// Unproject returns the camera-frame ray direction through pixel (x, y)
// at unit depth (z = 1).
func (k Intrinsics) Unproject(x, y int) geom.Vec3 {
	return geom.V3(
		(float64(x)-k.Cx)/k.Fx,
		(float64(y)-k.Cy)/k.Fy,
		1,
	)
}

// Project maps a camera-frame point to pixel coordinates; ok is false when
// the point is behind the camera or lands outside the image.
func (k Intrinsics) Project(p geom.Vec3) (x, y int, ok bool) {
	if p.Z <= 1e-9 {
		return 0, 0, false
	}
	u := float64(p.X/p.Z*k.Fx) + k.Cx
	v := float64(p.Y/p.Z*k.Fy) + k.Cy
	x = int(math.Round(u))
	y = int(math.Round(v))
	return x, y, x >= 0 && x < k.W && y >= 0 && y < k.H
}

// BlockAverage downsamples depth src by integer factor r using the mean of
// the valid samples in each r×r block (invalid when the whole block is
// invalid). It returns the number of pixel operations performed, which
// feeds the runtime model.
func BlockAverage(src *Map, r int) (*Map, int64) {
	if r <= 1 {
		return src.Clone(), int64(src.W * src.H)
	}
	w, h := src.W/r, src.H/r
	dst := NewMap(w, h)
	var ops int64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum := float32(0)
			n := 0
			for dy := 0; dy < r; dy++ {
				for dx := 0; dx < r; dx++ {
					v := src.At(x*r+dx, y*r+dy)
					ops++
					if v > 0 {
						sum += v
						n++
					}
				}
			}
			if n > 0 {
				dst.Set(x, y, sum/float32(n))
			}
		}
	}
	return dst, ops
}

// HalfSampleDepth builds the next pyramid level of a depth map: 2×2 block
// average that ignores samples deviating more than maxDiff from the
// top-left sample (edge-preserving, as in KFusion's mm-threshold variant).
func HalfSampleDepth(src *Map, maxDiff float32) (*Map, int64) {
	w, h := src.W/2, src.H/2
	dst := NewMap(w, h)
	var ops int64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			center := src.At(2*x, 2*y)
			if center <= 0 {
				ops += 4
				continue
			}
			sum := float32(0)
			n := 0
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					v := src.At(2*x+dx, 2*y+dy)
					ops++
					if v > 0 && abs32(v-center) <= maxDiff {
						sum += v
						n++
					}
				}
			}
			if n > 0 {
				dst.Set(x, y, sum/float32(n))
			}
		}
	}
	return dst, ops
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// BilateralFilter denoises a depth map with an edge-preserving bilateral
// kernel of the given radius: spatial Gaussian σs (pixels) and range
// Gaussian σr (meters). Invalid pixels stay invalid. Returns the filtered
// map and the number of tap operations.
func BilateralFilter(src *Map, radius int, sigmaSpace, sigmaRange float64) (*Map, int64) {
	dst := NewMap(src.W, src.H)
	if radius < 1 {
		copy(dst.Pix, src.Pix)
		return dst, int64(src.W * src.H)
	}
	// Precompute the spatial weights.
	size := 2*radius + 1
	spatial := make([]float64, size*size)
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			d2 := float64(dx*dx + dy*dy)
			spatial[(dy+radius)*size+(dx+radius)] = math.Exp(-d2 / (2 * sigmaSpace * sigmaSpace))
		}
	}
	inv2r2 := 1 / (2 * sigmaRange * sigmaRange)
	var ops int64
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			center := src.At(x, y)
			if center <= 0 {
				continue
			}
			sum, wsum := 0.0, 0.0
			for dy := -radius; dy <= radius; dy++ {
				yy := y + dy
				if yy < 0 || yy >= src.H {
					continue
				}
				for dx := -radius; dx <= radius; dx++ {
					xx := x + dx
					if xx < 0 || xx >= src.W {
						continue
					}
					v := src.At(xx, yy)
					ops++
					if v <= 0 {
						continue
					}
					diff := float64(v - center)
					w := float64(spatial[(dy+radius)*size+(dx+radius)] * math.Exp(-diff*diff*inv2r2))
					sum += float64(w * float64(v))
					wsum += w
				}
			}
			if wsum > 0 {
				dst.Set(x, y, float32(sum/wsum))
			}
		}
	}
	return dst, ops
}

// DepthToVertex converts a depth map to a camera-frame vertex map.
func DepthToVertex(depth *Map, k Intrinsics) *VecMap {
	out := NewVecMap(depth.W, depth.H)
	for y := 0; y < depth.H; y++ {
		for x := 0; x < depth.W; x++ {
			d := float64(depth.At(x, y))
			if d <= 0 {
				continue
			}
			out.Set(x, y, k.Unproject(x, y).Scale(d))
		}
	}
	return out
}

// VertexToNormal computes per-pixel normals from a vertex map by central
// differences (cross product of the image-space tangents). Normals point
// toward the camera (negative Z half-space in camera frame).
func VertexToNormal(vertex *VecMap) *VecMap {
	out := NewVecMap(vertex.W, vertex.H)
	for y := 0; y < vertex.H; y++ {
		for x := 0; x < vertex.W; x++ {
			if !vertex.ValidAt(x, y) {
				continue
			}
			xl, xr := x-1, x+1
			yu, yd := y-1, y+1
			if xl < 0 {
				xl = x
			}
			if xr >= vertex.W {
				xr = x
			}
			if yu < 0 {
				yu = y
			}
			if yd >= vertex.H {
				yd = y
			}
			if !vertex.ValidAt(xl, y) || !vertex.ValidAt(xr, y) ||
				!vertex.ValidAt(x, yu) || !vertex.ValidAt(x, yd) {
				continue
			}
			du := vertex.At(xr, y).Sub(vertex.At(xl, y))
			dv := vertex.At(x, yd).Sub(vertex.At(x, yu))
			n := du.Cross(dv).Normalized()
			if n == (geom.Vec3{}) {
				continue
			}
			// Orient toward the camera (origin): n·v must be negative.
			if n.Dot(vertex.At(x, y)) > 0 {
				n = n.Scale(-1)
			}
			out.Set(x, y, n)
		}
	}
	return out
}

// HalfSampleIntensity builds the next pyramid level of an intensity image
// by plain 2×2 averaging.
func HalfSampleIntensity(src *Map) (*Map, int64) {
	w, h := src.W/2, src.H/2
	dst := NewMap(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := src.At(2*x, 2*y) + src.At(2*x+1, 2*y) +
				src.At(2*x, 2*y+1) + src.At(2*x+1, 2*y+1)
			dst.Set(x, y, s/4)
		}
	}
	return dst, int64(w * h * 4)
}

// Gradient computes central-difference image gradients (gx, gy) of an
// intensity image.
func Gradient(src *Map) (gx, gy *Map) {
	gx = NewMap(src.W, src.H)
	gy = NewMap(src.W, src.H)
	for y := 1; y < src.H-1; y++ {
		for x := 1; x < src.W-1; x++ {
			gx.Set(x, y, (src.At(x+1, y)-src.At(x-1, y))/2)
			gy.Set(x, y, (src.At(x, y+1)-src.At(x, y-1))/2)
		}
	}
	return gx, gy
}

// SampleBilinear samples src at floating-point position (u, v) with
// bilinear interpolation; ok is false outside the image.
func SampleBilinear(src *Map, u, v float64) (float32, bool) {
	if u < 0 || v < 0 || u > float64(src.W-1) || v > float64(src.H-1) {
		return 0, false
	}
	x0, y0 := int(u), int(v)
	x1, y1 := x0+1, y0+1
	if x1 >= src.W {
		x1 = x0
	}
	if y1 >= src.H {
		y1 = y0
	}
	fx := float32(u - float64(x0))
	fy := float32(v - float64(y0))
	top := float32(src.At(x0, y0)*(1-fx)) + float32(src.At(x1, y0)*fx)
	bot := float32(src.At(x0, y1)*(1-fx)) + float32(src.At(x1, y1)*fx)
	return float32(top*(1-fy)) + float32(bot*fy), true
}
