package geom

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear system cannot be solved because the
// coefficient matrix is (numerically) singular.
var ErrSingular = errors.New("geom: singular system")

// Solve6 solves the symmetric positive-semidefinite 6×6 system A·x = b via
// Cholesky decomposition with a small diagonal damping term (Levenberg
// style) for robustness. a is row-major 6×6, b has length 6. It is the
// workhorse of the point-to-plane ICP and photometric Gauss-Newton steps.
func Solve6(a *[36]float64, b *[6]float64) ([6]float64, error) {
	const n = 6
	var l [36]float64
	// Scale damping with the largest diagonal entry so the regularization is
	// meaningful across kernels with very different residual magnitudes.
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(a[i*n+i]); d > maxDiag {
			maxDiag = d
		}
	}
	damp := float64(1e-9 * maxDiag) // rounded: it is added to the diagonal below, never fused
	if damp == 0 {
		return [6]float64{}, ErrSingular
	}

	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i*n+j]
			if i == j {
				sum += damp
			}
			for k := 0; k < j; k++ {
				sum -= float64(l[i*n+k] * l[j*n+k])
			}
			if i == j {
				if sum <= 0 {
					return [6]float64{}, ErrSingular
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}

	// Forward substitution: L·y = b.
	var y [6]float64
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= float64(l[i*n+k] * y[k])
		}
		y[i] = sum / l[i*n+i]
	}
	// Back substitution: Lᵀ·x = y.
	var x [6]float64
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= float64(l[k*n+i] * x[k])
		}
		x[i] = sum / l[i*n+i]
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return [6]float64{}, ErrSingular
		}
	}
	return x, nil
}

// Solve3 solves the 3×3 system A·x = b by Gaussian elimination with partial
// pivoting (used by the SO(3)-only pre-alignment step).
func Solve3(a *[9]float64, b *[3]float64) ([3]float64, error) {
	var m [9]float64
	copy(m[:], a[:])
	var rhs [3]float64
	copy(rhs[:], b[:])

	for col := 0; col < 3; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r*3+col]) > math.Abs(m[piv*3+col]) {
				piv = r
			}
		}
		if math.Abs(m[piv*3+col]) < 1e-14 {
			return [3]float64{}, ErrSingular
		}
		if piv != col {
			for c := 0; c < 3; c++ {
				m[piv*3+c], m[col*3+c] = m[col*3+c], m[piv*3+c]
			}
			rhs[piv], rhs[col] = rhs[col], rhs[piv]
		}
		inv := 1 / m[col*3+col]
		for r := col + 1; r < 3; r++ {
			f := m[r*3+col] * inv
			for c := col; c < 3; c++ {
				m[r*3+c] -= float64(f * m[col*3+c])
			}
			rhs[r] -= float64(f * rhs[col])
		}
	}
	var x [3]float64
	for i := 2; i >= 0; i-- {
		sum := rhs[i]
		for c := i + 1; c < 3; c++ {
			sum -= float64(m[i*3+c] * x[c])
		}
		x[i] = sum / m[i*3+i]
	}
	return x, nil
}
