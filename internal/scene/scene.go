// Package scene provides the analytic signed-distance-field world the
// synthetic RGB-D sensor observes: SDF primitives, a textured albedo model,
// and the procedural living room that stands in for the ICL-NUIM living
// room sequence (see "Simulation substrate" in docs/ARCHITECTURE.md).
package scene

import (
	"math"

	"repro/internal/geom"
)

// Object is one solid in the scene: a signed distance function plus a
// surface albedo (intensity in [0,1], possibly procedurally textured).
type Object interface {
	// Dist returns the signed distance from p to the object surface
	// (negative inside).
	Dist(p geom.Vec3) float64
	// Albedo returns the surface reflectance at p (only meaningful for
	// points on or near the surface).
	Albedo(p geom.Vec3) float64
	// Bound returns a sphere that contains the object. Dist is never below
	// the distance to that sphere, |p−center| − radius, which is what lets
	// the scene skip the object.
	Bound() (center geom.Vec3, radius float64)
}

// Sphere is a solid ball.
type Sphere struct {
	Center geom.Vec3
	Radius float64
	Shade  float64
}

// Dist implements Object.
func (s Sphere) Dist(p geom.Vec3) float64 { return p.Sub(s.Center).Norm() - s.Radius }

// Albedo implements Object.
func (s Sphere) Albedo(geom.Vec3) float64 { return s.Shade }

// Bound implements Object.
func (s Sphere) Bound() (geom.Vec3, float64) { return s.Center, s.Radius }

// Box is an axis-aligned solid box with optional corner rounding.
type Box struct {
	Center geom.Vec3
	Half   geom.Vec3 // half-extents
	Round  float64
	Shade  float64
	// Stripes > 0 adds procedural stripes of the given spatial frequency
	// along x+z, giving the photometric tracker gradients to lock onto.
	Stripes float64
}

// Dist implements Object.
func (b Box) Dist(p geom.Vec3) float64 {
	q := p.Sub(b.Center).Abs().Sub(b.Half)
	outside := geom.V3(max(q.X, 0), max(q.Y, 0), max(q.Z, 0)).Norm()
	inside := min(max(q.X, q.Y, q.Z), 0)
	return outside + inside - b.Round
}

// Bound implements Object (and Checker's through embedding).
func (b Box) Bound() (geom.Vec3, float64) { return b.Center, b.Half.Norm() + b.Round }

// Albedo implements Object; each product is rounded before it is added.
func (b Box) Albedo(p geom.Vec3) float64 {
	if b.Stripes <= 0 {
		return b.Shade
	}
	s := math.Sin(p.X*b.Stripes) + math.Sin(float64(p.Z*b.Stripes)+float64(p.Y*b.Stripes*0.7))
	return clamp01(b.Shade + float64(0.09*s))
}

// CylinderY is a vertical capped cylinder.
type CylinderY struct {
	Center geom.Vec3 // center of the axis segment
	Radius float64
	Half   float64 // half-height
	Shade  float64
}

// Dist implements Object.
func (c CylinderY) Dist(p geom.Vec3) float64 {
	q := p.Sub(c.Center)
	dXZ := math.Hypot(q.X, q.Z) - c.Radius
	dY := math.Abs(q.Y) - c.Half
	return min(max(dXZ, dY), 0) + math.Hypot(max(dXZ, 0), max(dY, 0))
}

// Albedo implements Object.
func (c CylinderY) Albedo(geom.Vec3) float64 { return c.Shade }

// Bound implements Object.
func (c CylinderY) Bound() (geom.Vec3, float64) { return c.Center, math.Hypot(c.Radius, c.Half) }

// Checker is a box with a checkerboard albedo (floors and rugs).
type Checker struct {
	Box
	CheckSize float64
	Shade2    float64
}

// Albedo implements Object.
func (c Checker) Albedo(p geom.Vec3) float64 {
	ix := int(math.Floor(p.X / c.CheckSize))
	iz := int(math.Floor(p.Z / c.CheckSize))
	if (ix+iz)%2 == 0 {
		return c.Box.Shade
	}
	return c.Shade2
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

// Scene is a union of objects. Build it with New: the bounding spheres are
// computed there, once, so a scene is read-only and safe to share between
// goroutines.
type Scene struct {
	items []item
}

// item is one object with its bounding sphere; reach is the sphere's radius
// plus cullMargin.
type item struct {
	obj    Object
	center geom.Vec3
	reach  float64
}

// cullMargin pads every bounding sphere by a micron, far above the rounding
// error of a distance at room scale (≈1e-15 m), so an object is only skipped
// when its computed distance is strictly above the running minimum.
const cullMargin = 1e-6

// New builds a scene over objs, in order: where two objects are equally
// near, the first one's albedo wins.
func New(objs ...Object) *Scene {
	s := &Scene{items: make([]item, len(objs))}
	for i, o := range objs {
		c, r := o.Bound()
		s.items[i] = item{obj: o, center: c, reach: r + cullMargin}
	}
	return s
}

// nearest returns the smallest object distance at p and the index of the
// first object that attains it (-1 for an empty scene). An object whose
// bounding sphere is farther than the running minimum d is skipped without
// evaluating it: its distance is at least |p−center| − radius > d, so it
// could not have won.
func (s *Scene) nearest(p geom.Vec3) (float64, int) {
	d, near := math.Inf(1), -1
	for i := range s.items {
		it := &s.items[i]
		v := p.Sub(it.center)
		if e := d + it.reach; v.Dot(v) > e*e {
			continue
		}
		if od := it.obj.Dist(p); od < d {
			d, near = od, i
		}
	}
	return d, near
}

// Dist returns the signed distance to the nearest object surface.
func (s *Scene) Dist(p geom.Vec3) float64 {
	d, _ := s.nearest(p)
	return d
}

// DistAlbedo returns the distance to the nearest surface and the albedo of
// the nearest object (0.5 in an empty scene).
func (s *Scene) DistAlbedo(p geom.Vec3) (float64, float64) {
	d, near := s.nearest(p)
	if near < 0 {
		return d, 0.5
	}
	return d, s.items[near].obj.Albedo(p)
}

// Normal estimates the outward surface normal at p via central differences
// of the SDF.
func (s *Scene) Normal(p geom.Vec3) geom.Vec3 {
	const h = 1e-4
	dx := s.Dist(p.Add(geom.V3(h, 0, 0))) - s.Dist(p.Sub(geom.V3(h, 0, 0)))
	dy := s.Dist(p.Add(geom.V3(0, h, 0))) - s.Dist(p.Sub(geom.V3(0, h, 0)))
	dz := s.Dist(p.Add(geom.V3(0, 0, h))) - s.Dist(p.Sub(geom.V3(0, 0, h)))
	return geom.V3(dx, dy, dz).Normalized()
}

// LivingRoom builds the procedural living room: a 5×2.6×4 m room (floor at
// y=0) furnished with a sofa, a table with legs, a lamp, shelves and decor
// spheres. Surfaces carry procedural texture so photometric tracking has
// gradients to use.
func LivingRoom() *Scene {
	const (
		roomX = 2.5 // half-width  (x ∈ [-2.5, 2.5])
		roomZ = 2.0 // half-depth  (z ∈ [-2, 2])
		roomH = 2.6 // height      (y ∈ [0, 2.6])
		wall  = 0.1
	)
	var objs []Object
	add := func(o Object) { objs = append(objs, o) }

	// Shell: floor (checkered), ceiling, four striped walls.
	add(Checker{
		Box:       Box{Center: geom.V3(0, -wall/2, 0), Half: geom.V3(roomX, wall/2, roomZ), Shade: 0.55},
		CheckSize: 0.5, Shade2: 0.3,
	})
	add(Box{Center: geom.V3(0, roomH+wall/2, 0), Half: geom.V3(roomX, wall/2, roomZ), Shade: 0.85})
	add(Box{Center: geom.V3(-roomX-wall/2, roomH/2, 0), Half: geom.V3(wall/2, roomH/2, roomZ), Shade: 0.7, Stripes: 6})
	add(Box{Center: geom.V3(roomX+wall/2, roomH/2, 0), Half: geom.V3(wall/2, roomH/2, roomZ), Shade: 0.65, Stripes: 5})
	add(Box{Center: geom.V3(0, roomH/2, -roomZ-wall/2), Half: geom.V3(roomX, roomH/2, wall/2), Shade: 0.75, Stripes: 7})
	add(Box{Center: geom.V3(0, roomH/2, roomZ+wall/2), Half: geom.V3(roomX, roomH/2, wall/2), Shade: 0.6, Stripes: 4})

	// Sofa against the -x wall: seat, back, two arms.
	add(Box{Center: geom.V3(-2.0, 0.25, 0), Half: geom.V3(0.45, 0.25, 0.9), Round: 0.03, Shade: 0.35, Stripes: 9})
	add(Box{Center: geom.V3(-2.32, 0.75, 0), Half: geom.V3(0.13, 0.45, 0.9), Round: 0.03, Shade: 0.32, Stripes: 9})
	add(Box{Center: geom.V3(-2.0, 0.62, 0.98), Half: geom.V3(0.45, 0.18, 0.1), Round: 0.03, Shade: 0.3})
	add(Box{Center: geom.V3(-2.0, 0.62, -0.98), Half: geom.V3(0.45, 0.18, 0.1), Round: 0.03, Shade: 0.3})

	// Coffee table: top plus four legs, with a decor sphere and a pot.
	add(Box{Center: geom.V3(0.3, 0.48, 0.1), Half: geom.V3(0.55, 0.03, 0.4), Round: 0.01, Shade: 0.45, Stripes: 14})
	for _, dx := range []float64{-0.48, 0.48} {
		for _, dz := range []float64{-0.33, 0.33} {
			add(CylinderY{Center: geom.V3(0.3+dx, 0.24, 0.1+dz), Radius: 0.035, Half: 0.24, Shade: 0.25})
		}
	}
	add(Sphere{Center: geom.V3(0.12, 0.61, 0.0), Radius: 0.1, Shade: 0.8})
	add(CylinderY{Center: geom.V3(0.62, 0.58, 0.3), Radius: 0.07, Half: 0.07, Shade: 0.5})

	// Floor lamp in the far corner.
	add(CylinderY{Center: geom.V3(1.9, 0.7, -1.5), Radius: 0.03, Half: 0.7, Shade: 0.2})
	add(Sphere{Center: geom.V3(1.9, 1.55, -1.5), Radius: 0.18, Shade: 0.95})

	// Wall shelves on the +x wall.
	add(Box{Center: geom.V3(2.3, 1.2, 0.8), Half: geom.V3(0.15, 0.02, 0.4), Shade: 0.5})
	add(Box{Center: geom.V3(2.3, 1.6, 0.8), Half: geom.V3(0.15, 0.02, 0.4), Shade: 0.5})
	add(Box{Center: geom.V3(2.3, 1.28, 0.65), Half: geom.V3(0.12, 0.06, 0.04), Shade: 0.7})
	add(Box{Center: geom.V3(2.3, 1.3, 0.9), Half: geom.V3(0.12, 0.08, 0.05), Shade: 0.25})

	// Sideboard cabinet near the +z wall.
	add(Box{Center: geom.V3(-0.6, 0.4, 1.7), Half: geom.V3(0.6, 0.4, 0.22), Round: 0.02, Shade: 0.42, Stripes: 11})
	add(Sphere{Center: geom.V3(-0.9, 0.93, 1.7), Radius: 0.12, Shade: 0.15})

	// Wall relief: without 3-D structure on the walls, wall-facing views
	// leave point-to-plane ICP free to slide tangentially (a real failure
	// mode of geometric trackers in empty rooms). Door and window frames,
	// a radiator, a bookcase and pilasters constrain every viewing
	// direction.

	// Door frame on the +z wall.
	add(Box{Center: geom.V3(1.3, 1.0, 1.97), Half: geom.V3(0.06, 1.0, 0.07), Shade: 0.35})
	add(Box{Center: geom.V3(2.1, 1.0, 1.97), Half: geom.V3(0.06, 1.0, 0.07), Shade: 0.35})
	add(Box{Center: geom.V3(1.7, 2.0, 1.97), Half: geom.V3(0.46, 0.06, 0.07), Shade: 0.35})

	// Window frame and sill on the -z wall, with a radiator below.
	add(Box{Center: geom.V3(-0.9, 1.5, -1.97), Half: geom.V3(0.07, 0.55, 0.06), Shade: 0.9})
	add(Box{Center: geom.V3(0.3, 1.5, -1.97), Half: geom.V3(0.07, 0.55, 0.06), Shade: 0.9})
	add(Box{Center: geom.V3(-0.3, 2.02, -1.97), Half: geom.V3(0.67, 0.06, 0.06), Shade: 0.9})
	add(Box{Center: geom.V3(-0.3, 0.98, -1.96), Half: geom.V3(0.67, 0.06, 0.09), Shade: 0.9})
	add(Box{Center: geom.V3(-0.3, 0.45, -1.9), Half: geom.V3(0.5, 0.3, 0.06), Shade: 0.55, Stripes: 40})

	// Bookcase on the -x wall (opposite end from the sofa).
	add(Box{Center: geom.V3(-2.35, 0.9, -1.4), Half: geom.V3(0.15, 0.9, 0.45), Shade: 0.38})
	add(Box{Center: geom.V3(-2.28, 1.45, -1.4), Half: geom.V3(0.1, 0.1, 0.35), Shade: 0.68})
	add(Box{Center: geom.V3(-2.28, 0.95, -1.25), Half: geom.V3(0.1, 0.14, 0.12), Shade: 0.22})
	add(Box{Center: geom.V3(-2.28, 0.5, -1.55), Half: geom.V3(0.1, 0.12, 0.18), Shade: 0.75})

	// Pilasters (vertical ribs) breaking up the long walls.
	add(Box{Center: geom.V3(0.9, 1.3, -1.95), Half: geom.V3(0.09, 1.3, 0.08), Shade: 0.7})
	add(Box{Center: geom.V3(-1.6, 1.3, 1.95), Half: geom.V3(0.09, 1.3, 0.08), Shade: 0.62})
	add(Box{Center: geom.V3(2.44, 1.3, -0.6), Half: geom.V3(0.08, 1.3, 0.09), Shade: 0.66})

	// A potted plant in the -x/-z corner region and a floor box.
	add(CylinderY{Center: geom.V3(-1.7, 0.18, -1.6), Radius: 0.14, Half: 0.18, Shade: 0.3})
	add(Sphere{Center: geom.V3(-1.7, 0.55, -1.6), Radius: 0.22, Shade: 0.45})
	add(Box{Center: geom.V3(1.5, 0.16, 1.2), Half: geom.V3(0.25, 0.16, 0.2), Round: 0.02, Shade: 0.5, Stripes: 16})

	return New(objs...)
}
