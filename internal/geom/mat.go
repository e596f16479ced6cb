package geom

import "math"

// Mat3 is a row-major 3×3 matrix.
type Mat3 [9]float64

// Identity3 returns the 3×3 identity matrix.
func Identity3() Mat3 {
	return Mat3{1, 0, 0, 0, 1, 0, 0, 0, 1}
}

// MulVec returns m · v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		float64(m[0]*v.X) + float64(m[1]*v.Y) + float64(m[2]*v.Z),
		float64(m[3]*v.X) + float64(m[4]*v.Y) + float64(m[5]*v.Z),
		float64(m[6]*v.X) + float64(m[7]*v.Y) + float64(m[8]*v.Z),
	}
}

// Mul returns m · n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var out Mat3
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += float64(m[3*r+k] * n[3*k+c])
			}
			out[3*r+c] = s
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m Mat3) Transpose() Mat3 {
	return Mat3{
		m[0], m[3], m[6],
		m[1], m[4], m[7],
		m[2], m[5], m[8],
	}
}

// Scale returns s·m.
func (m Mat3) Scale(s float64) Mat3 {
	var out Mat3
	for i := range m {
		out[i] = m[i] * s
	}
	return out
}

// AddMat returns m + n.
func (m Mat3) AddMat(n Mat3) Mat3 {
	var out Mat3
	for i := range m {
		out[i] = m[i] + n[i]
	}
	return out
}

// Det returns the determinant of m.
func (m Mat3) Det() float64 {
	return float64(m[0]*(float64(m[4]*m[8])-float64(m[5]*m[7]))) -
		float64(m[1]*(float64(m[3]*m[8])-float64(m[5]*m[6]))) +
		float64(m[2]*(float64(m[3]*m[7])-float64(m[4]*m[6])))
}

// Trace returns the trace of m.
func (m Mat3) Trace() float64 { return m[0] + m[4] + m[8] }

// Skew returns the skew-symmetric matrix [v]× such that [v]× w = v × w.
func Skew(v Vec3) Mat3 {
	return Mat3{
		0, -v.Z, v.Y,
		v.Z, 0, -v.X,
		-v.Y, v.X, 0,
	}
}

// RotZ returns the rotation matrix about the Z axis by angle a (radians).
func RotZ(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{
		c, -s, 0,
		s, c, 0,
		0, 0, 1,
	}
}

// ExpSO3 returns the rotation matrix exp([w]×) via the Rodrigues formula.
func ExpSO3(w Vec3) Mat3 {
	theta := w.Norm()
	if theta < 1e-12 {
		// First-order expansion: I + [w]×.
		return Identity3().AddMat(Skew(w))
	}
	k := w.Scale(1 / theta)
	kx := Skew(k)
	s, c := math.Sin(theta), math.Cos(theta)
	return Identity3().
		AddMat(kx.Scale(s)).
		AddMat(kx.Mul(kx).Scale(1 - c))
}

// LogSO3 returns w such that ExpSO3(w) = R, for a valid rotation matrix R.
func LogSO3(r Mat3) Vec3 {
	cosTheta := (r.Trace() - 1) / 2
	if cosTheta > 1 {
		cosTheta = 1
	}
	if cosTheta < -1 {
		cosTheta = -1
	}
	theta := math.Acos(cosTheta)
	if theta < 1e-9 {
		// Near identity: w ≈ vee(R - Rᵀ)/2.
		return Vec3{
			(r[7] - r[5]) / 2,
			(r[2] - r[6]) / 2,
			(r[3] - r[1]) / 2,
		}
	}
	if math.Pi-theta < 1e-6 {
		// Near π: extract axis from R + I.
		b := r.AddMat(Identity3())
		axis := Vec3{b[0], b[3], b[6]}
		if axis.Norm() < 1e-9 {
			axis = Vec3{b[1], b[4], b[7]}
		}
		if axis.Norm() < 1e-9 {
			axis = Vec3{b[2], b[5], b[8]}
		}
		return axis.Normalized().Scale(theta)
	}
	f := theta / (2 * math.Sin(theta))
	return Vec3{
		(r[7] - r[5]) * f,
		(r[2] - r[6]) * f,
		(r[3] - r[1]) * f,
	}
}
