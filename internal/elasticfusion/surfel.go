package elasticfusion

import (
	"repro/internal/geom"
	"repro/internal/imgproc"
)

// Surfel is one disc-shaped map element: position, normal, radius, color
// (intensity), a fusion confidence and bookkeeping timestamps.
type Surfel struct {
	Pos       geom.Vec3
	Normal    geom.Vec3
	Color     float32
	Radius    float32
	Conf      float32
	LastSeen  int32
	CreatedAt int32
}

// SurfelMap is the global surfel model.
type SurfelMap struct {
	Surfels []Surfel
}

// Len returns the number of surfels in the map.
func (m *SurfelMap) Len() int { return len(m.Surfels) }

// renderMaps holds the model prediction rendered from a viewpoint: world
// vertices/normals, intensity, and the index of the source surfel per pixel
// (-1 when empty).
type renderMaps struct {
	vertex    *imgproc.VecMap
	normal    *imgproc.VecMap
	intensity *imgproc.Map
	index     []int32
	depth     []float32 // z-buffer
}

func newRenderMaps(w, h int) *renderMaps {
	r := &renderMaps{
		vertex:    imgproc.NewVecMap(w, h),
		normal:    imgproc.NewVecMap(w, h),
		intensity: imgproc.NewMap(w, h),
		index:     make([]int32, w*h),
		depth:     make([]float32, w*h),
	}
	for i := range r.index {
		r.index[i] = -1
	}
	return r
}

// surfelFilter selects which surfels participate in a render pass.
type surfelFilter func(s *Surfel) bool

// Render projects the selected surfels into the view defined by pose
// (camera-to-world) and intr, keeping the nearest surfel per pixel, and
// splatting into a small neighborhood so the prediction is dense enough for
// projective data association. It returns the maps and the number of
// surfels processed (the render work counter).
func (m *SurfelMap) Render(intr imgproc.Intrinsics, pose geom.Pose, keep surfelFilter) (*renderMaps, int64) {
	r := newRenderMaps(intr.W, intr.H)
	ops := m.renderPass(r, intr, pose, keep, false)
	return r, ops
}

// RenderWithFallback renders the primary surfels and then fills pixels the
// primary pass left empty from the fallback set — ElasticFusion's predictor
// backs the stable model with unstable surfels so tracking survives the
// confidence warm-up and freshly explored regions.
func (m *SurfelMap) RenderWithFallback(intr imgproc.Intrinsics, pose geom.Pose, primary, fallback surfelFilter) (*renderMaps, int64) {
	r := newRenderMaps(intr.W, intr.H)
	ops := m.renderPass(r, intr, pose, primary, false)
	ops += m.renderPass(r, intr, pose, fallback, true)
	return r, ops
}

// renderPass splats one filtered subset into r. With fillOnly, occupied
// pixels are left untouched.
func (m *SurfelMap) renderPass(r *renderMaps, intr imgproc.Intrinsics, pose geom.Pose, keep surfelFilter, fillOnly bool) int64 {
	inv := pose.Inverse()
	var ops int64
	for si := range m.Surfels {
		s := &m.Surfels[si]
		if keep != nil && !keep(s) {
			continue
		}
		ops++
		pc := inv.Apply(s.Pos)
		if pc.Z <= 0.05 {
			continue
		}
		x, y, ok := intr.Project(pc)
		if !ok {
			continue
		}
		z := float32(pc.Z)
		// Splat into a single pixel; hole filling is handled by the
		// fallback pass and the merge association tolerates misses.
		for dy := 0; dy < 1; dy++ {
			for dx := 0; dx < 1; dx++ {
				xx, yy := x+dx, y+dy
				if xx >= intr.W || yy >= intr.H {
					continue
				}
				pi := yy*intr.W + xx
				if r.index[pi] >= 0 && (fillOnly || r.depth[pi] <= z) {
					continue
				}
				r.index[pi] = int32(si)
				r.depth[pi] = z
				r.vertex.Set(xx, yy, s.Pos)
				r.normal.Set(xx, yy, s.Normal)
				r.intensity.Set(xx, yy, s.Color)
			}
		}
	}
	return ops
}

// fuseStats reports what one fusion pass did.
type fuseStats struct {
	merged int64
	added  int64
	culled int64
	ops    int64
}

// Fuse integrates one frame (camera-frame vertex/normal maps plus
// intensity) into the map given the estimated pose. assoc is the render of
// the current model from the same pose, used for projective association.
// Surfels that have stayed below confThreshold for longer than
// unstableWindow frames are culled.
func (m *SurfelMap) Fuse(
	vertex, normal *imgproc.VecMap,
	intensity *imgproc.Map,
	intr imgproc.Intrinsics,
	pose geom.Pose,
	assoc *renderMaps,
	frame int32,
	confThreshold float32,
	unstableWindow int32,
) fuseStats {
	var st fuseStats
	const (
		mergeDist   = 0.05 // meters
		mergeNormal = 0.7  // min normal dot product
	)
	for y := 0; y < vertex.H; y++ {
		for x := 0; x < vertex.W; x++ {
			if !vertex.ValidAt(x, y) || !normal.ValidAt(x, y) {
				continue
			}
			st.ops++
			vWorld := pose.Apply(vertex.At(x, y))
			nWorld := pose.Rotate(normal.At(x, y))
			col := intensity.At(x, y)
			pi := y*assoc.vertex.W + x

			if si := assoc.index[pi]; si >= 0 {
				s := &m.Surfels[si]
				if s.Pos.Sub(vWorld).Norm() < mergeDist && s.Normal.Dot(nWorld) > mergeNormal {
					// Confidence-weighted running average.
					w := float64(s.Conf)
					t := 1 / (w + 1)
					s.Pos = geom.Lerp(s.Pos, vWorld, t)
					s.Normal = geom.Lerp(s.Normal, nWorld, t).Normalized()
					s.Color = s.Color + (col-s.Color)*float32(t)
					s.Conf++
					s.LastSeen = frame
					st.merged++
					continue
				}
			}
			// New surfel: radius from pixel footprint at this depth.
			depth := vertex.At(x, y).Z
			m.Surfels = append(m.Surfels, Surfel{
				Pos:       vWorld,
				Normal:    nWorld,
				Color:     col,
				Radius:    float32(depth / intr.Fx * 1.5),
				Conf:      1,
				LastSeen:  frame,
				CreatedAt: frame,
			})
			st.added++
		}
	}
	// Cull stale unstable surfels.
	if unstableWindow > 0 {
		keep := m.Surfels[:0]
		for _, s := range m.Surfels {
			if s.Conf < confThreshold && frame-s.LastSeen > unstableWindow {
				st.culled++
				continue
			}
			keep = append(keep, s)
		}
		m.Surfels = keep
	}
	return st
}
