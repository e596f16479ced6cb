package geom

import "math"

// Pose is a rigid-body transform in SE(3): p ↦ R·p + T.
// The zero value is not a valid pose; use IdentityPose.
type Pose struct {
	R Mat3
	T Vec3
}

// IdentityPose returns the identity transform.
func IdentityPose() Pose { return Pose{R: Identity3()} }

// Apply transforms point p by the pose.
func (a Pose) Apply(p Vec3) Vec3 { return a.R.MulVec(p).Add(a.T) }

// Rotate applies only the rotational part (for directions/normals).
func (a Pose) Rotate(v Vec3) Vec3 { return a.R.MulVec(v) }

// Mul returns the composition a ∘ b (apply b first, then a).
func (a Pose) Mul(b Pose) Pose {
	return Pose{
		R: a.R.Mul(b.R),
		T: a.R.MulVec(b.T).Add(a.T),
	}
}

// Inverse returns the inverse transform.
func (a Pose) Inverse() Pose {
	rt := a.R.Transpose()
	return Pose{R: rt, T: rt.MulVec(a.T).Scale(-1)}
}

// Translation returns the translation component (the camera position when
// the pose is camera-to-world).
func (a Pose) Translation() Vec3 { return a.T }

// ExpSE3 maps a twist ξ = (v, w) ∈ se(3) to a rigid transform. v is the
// translational velocity, w the rotational velocity (axis-angle).
func ExpSE3(v, w Vec3) Pose {
	theta := w.Norm()
	r := ExpSO3(w)
	if theta < 1e-12 {
		return Pose{R: r, T: v}
	}
	k := w.Scale(1 / theta)
	kx := Skew(k)
	s, c := math.Sin(theta), math.Cos(theta)
	// Left Jacobian of SO(3): V = I + ((1-cos θ)/θ) K + ((θ-sin θ)/θ) K².
	vmat := Identity3().
		AddMat(kx.Scale((1 - c) / theta)).
		AddMat(kx.Mul(kx).Scale((theta - s) / theta))
	return Pose{R: r, T: vmat.MulVec(v)}
}

// LogSE3 maps a rigid transform to its twist (v, w) such that
// ExpSE3(v, w) == p (up to numerical precision).
func LogSE3(p Pose) (v, w Vec3) {
	w = LogSO3(p.R)
	theta := w.Norm()
	if theta < 1e-12 {
		return p.T, w
	}
	k := w.Scale(1 / theta)
	kx := Skew(k)
	s, c := math.Sin(theta), math.Cos(theta)
	vmat := Identity3().
		AddMat(kx.Scale((1 - c) / theta)).
		AddMat(kx.Mul(kx).Scale((theta - s) / theta))
	vinv := invert3(vmat)
	return vinv.MulVec(p.T), w
}

// invert3 inverts a 3×3 matrix by cofactor expansion. It panics on singular
// input; the left Jacobian of SO(3) is always invertible for θ < 2π.
func invert3(m Mat3) Mat3 {
	det := m.Det()
	if math.Abs(det) < 1e-15 {
		panic("geom: singular 3×3 matrix")
	}
	inv := Mat3{
		float64(m[4]*m[8]) - float64(m[5]*m[7]), float64(m[2]*m[7]) - float64(m[1]*m[8]), float64(m[1]*m[5]) - float64(m[2]*m[4]),
		float64(m[5]*m[6]) - float64(m[3]*m[8]), float64(m[0]*m[8]) - float64(m[2]*m[6]), float64(m[2]*m[3]) - float64(m[0]*m[5]),
		float64(m[3]*m[7]) - float64(m[4]*m[6]), float64(m[1]*m[6]) - float64(m[0]*m[7]), float64(m[0]*m[4]) - float64(m[1]*m[3]),
	}
	return inv.Scale(1 / det)
}

// Distance returns the Euclidean distance between the translations of a and
// b — the trajectory-error building block.
func Distance(a, b Pose) float64 { return a.T.Sub(b.T).Norm() }

// RotationAngle returns the relative rotation angle between a and b in
// radians.
func RotationAngle(a, b Pose) float64 {
	return LogSO3(a.R.Transpose().Mul(b.R)).Norm()
}

// Orthonormalize re-projects the rotation part of p onto SO(3) using
// Gram-Schmidt; useful after long chains of composed increments.
func (a Pose) Orthonormalize() Pose {
	r0 := Vec3{a.R[0], a.R[1], a.R[2]}
	r1 := Vec3{a.R[3], a.R[4], a.R[5]}
	x := r0.Normalized()
	y := r1.Sub(x.Scale(x.Dot(r1))).Normalized()
	z := x.Cross(y)
	return Pose{
		R: Mat3{
			x.X, x.Y, x.Z,
			y.X, y.Y, y.Z,
			z.X, z.Y, z.Z,
		},
		T: a.T,
	}
}
