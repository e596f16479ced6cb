package geom

import "math"

// Quat is a unit quaternion w + xi + yj + zk representing a rotation.
type Quat struct{ W, X, Y, Z float64 }

// IdentityQuat returns the identity rotation.
func IdentityQuat() Quat { return Quat{W: 1} }

// Norm returns |q|.
func (q Quat) Norm() float64 {
	return math.Sqrt(float64(q.W*q.W) + float64(q.X*q.X) + float64(q.Y*q.Y) + float64(q.Z*q.Z))
}

// Normalized returns q/|q| (identity if |q| ≈ 0).
func (q Quat) Normalized() Quat {
	n := q.Norm()
	if n < 1e-15 {
		return IdentityQuat()
	}
	return Quat{q.W / n, q.X / n, q.Y / n, q.Z / n}
}

// Mat returns the rotation-matrix form of q (q must be unit).
func (q Quat) Mat() Mat3 {
	w, x, y, z := q.W, q.X, q.Y, q.Z
	return Mat3{
		1 - float64(2*(float64(y*y)+float64(z*z))), 2 * (float64(x*y) - float64(w*z)), 2 * (float64(x*z) + float64(w*y)),
		2 * (float64(x*y) + float64(w*z)), 1 - float64(2*(float64(x*x)+float64(z*z))), 2 * (float64(y*z) - float64(w*x)),
		2 * (float64(x*z) - float64(w*y)), 2 * (float64(y*z) + float64(w*x)), 1 - float64(2*(float64(x*x)+float64(y*y))),
	}
}

// QuatFromMat converts a rotation matrix to a unit quaternion (Shepperd's
// method).
func QuatFromMat(m Mat3) Quat {
	tr := m.Trace()
	var q Quat
	switch {
	case tr > 0:
		s := math.Sqrt(tr+1) * 2
		q = Quat{s / 4, (m[7] - m[5]) / s, (m[2] - m[6]) / s, (m[3] - m[1]) / s}
	case m[0] > m[4] && m[0] > m[8]:
		s := math.Sqrt(1+m[0]-m[4]-m[8]) * 2
		q = Quat{(m[7] - m[5]) / s, s / 4, (m[1] + m[3]) / s, (m[2] + m[6]) / s}
	case m[4] > m[8]:
		s := math.Sqrt(1+m[4]-m[0]-m[8]) * 2
		q = Quat{(m[2] - m[6]) / s, (m[1] + m[3]) / s, s / 4, (m[5] + m[7]) / s}
	default:
		s := math.Sqrt(1+m[8]-m[0]-m[4]) * 2
		q = Quat{(m[3] - m[1]) / s, (m[2] + m[6]) / s, (m[5] + m[7]) / s, s / 4}
	}
	return q.Normalized()
}
