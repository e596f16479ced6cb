// Package geom provides the 3-D linear algebra used by the SLAM pipelines:
// vectors, 3×3 matrices, rigid-body SE(3) transforms, quaternions, the
// so(3)/se(3) exponential and logarithm maps, and the small dense solver for
// the 6×6 ICP normal equations.
package geom

import "math"

// Vec3 is a 3-component vector of float64.
type Vec3 struct{ X, Y, Z float64 }

// V3 is shorthand for Vec3{x, y, z}.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns a + b. Both operands are rounded first, so a product inlined
// into either is never fused with the sum.
func (a Vec3) Add(b Vec3) Vec3 {
	return Vec3{float64(a.X) + float64(b.X), float64(a.Y) + float64(b.Y), float64(a.Z) + float64(b.Z)}
}

// Sub returns a - b, its operands rounded first like Add's.
func (a Vec3) Sub(b Vec3) Vec3 {
	return Vec3{float64(a.X) - float64(b.X), float64(a.Y) - float64(b.Y), float64(a.Z) - float64(b.Z)}
}

// Scale returns s * a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the dot product a · b.
func (a Vec3) Dot(b Vec3) float64 { return float64(a.X*b.X) + float64(a.Y*b.Y) + float64(a.Z*b.Z) }

// Cross returns the cross product a × b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		float64(a.Y*b.Z) - float64(a.Z*b.Y),
		float64(a.Z*b.X) - float64(a.X*b.Z),
		float64(a.X*b.Y) - float64(a.Y*b.X),
	}
}

// Norm returns |a|.
func (a Vec3) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Normalized returns a/|a|, or the zero vector if |a| is (near) zero.
func (a Vec3) Normalized() Vec3 {
	n := a.Norm()
	if n < 1e-12 {
		return Vec3{}
	}
	return a.Scale(1 / n)
}

// Mul returns the component-wise product of a and b.
func (a Vec3) Mul(b Vec3) Vec3 { return Vec3{a.X * b.X, a.Y * b.Y, a.Z * b.Z} }

// Abs returns the component-wise absolute value of a.
func (a Vec3) Abs() Vec3 {
	return Vec3{math.Abs(a.X), math.Abs(a.Y), math.Abs(a.Z)}
}

// Lerp returns a + t*(b-a).
func Lerp(a, b Vec3, t float64) Vec3 { return a.Add(b.Sub(a).Scale(t)) }
