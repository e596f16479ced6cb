package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func vecAlmostEqual(a, b Vec3, eps float64) bool {
	return a.Sub(b).Norm() <= eps
}

func matAlmostEqual(a, b Mat3, eps float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > eps {
			return false
		}
	}
	return true
}

func randVec(rng *rand.Rand, scale float64) Vec3 {
	return Vec3{
		(rng.Float64()*2 - 1) * scale,
		(rng.Float64()*2 - 1) * scale,
		(rng.Float64()*2 - 1) * scale,
	}
}

func randRot(rng *rand.Rand) Mat3 {
	return ExpSO3(randVec(rng, 2.5))
}

func TestVecBasics(t *testing.T) {
	a, b := V3(1, 2, 3), V3(4, 5, 6)
	if got := a.Add(b); got != V3(5, 7, 9) {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); got != V3(3, 3, 3) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := a.Cross(b); got != V3(-3, 6, -3) {
		t.Fatalf("Cross = %v", got)
	}
	if got := V3(3, 4, 0).Norm(); got != 5 {
		t.Fatalf("Norm = %v", got)
	}
}

// boundedUnit maps an arbitrary float64 into [-1, 1] so property tests stay
// in a numerically sane range.
func boundedUnit(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Mod(x, 1.0)
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3(boundedUnit(ax), boundedUnit(ay), boundedUnit(az))
		b := V3(boundedUnit(bx), boundedUnit(by), boundedUnit(bz))
		c := a.Cross(b)
		return math.Abs(c.Dot(a)) < 1e-9 && math.Abs(c.Dot(b)) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedZeroVector(t *testing.T) {
	if got := (Vec3{}).Normalized(); got != (Vec3{}) {
		t.Fatalf("Normalized(0) = %v", got)
	}
}

func TestClampAndLerp(t *testing.T) {
	if got := Lerp(V3(0, 0, 0), V3(2, 4, 6), 0.5); got != V3(1, 2, 3) {
		t.Fatalf("Lerp = %v", got)
	}
}

func TestMat3MulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randRot(rng)
	if !matAlmostEqual(m.Mul(Identity3()), m, tol) {
		t.Fatal("M·I != M")
	}
	if !matAlmostEqual(Identity3().Mul(m), m, tol) {
		t.Fatal("I·M != M")
	}
}

func TestRotationOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		r := randRot(rng)
		if !matAlmostEqual(r.Mul(r.Transpose()), Identity3(), 1e-9) {
			t.Fatalf("R·Rᵀ != I for %v", r)
		}
		if math.Abs(r.Det()-1) > 1e-9 {
			t.Fatalf("det(R) = %v", r.Det())
		}
	}
}

func TestSkewCrossEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		v, w := randVec(rng, 3), randVec(rng, 3)
		if !vecAlmostEqual(Skew(v).MulVec(w), v.Cross(w), tol) {
			t.Fatal("Skew(v)·w != v × w")
		}
	}
}

func TestExpLogSO3Roundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		w := randVec(rng, 3.0) // |w| < 3·√3 but LogSO3 returns principal value
		if w.Norm() > math.Pi-0.05 {
			w = w.Normalized().Scale(rng.Float64() * (math.Pi - 0.05))
		}
		r := ExpSO3(w)
		got := LogSO3(r)
		if !vecAlmostEqual(got, w, 1e-6) {
			t.Fatalf("LogSO3(ExpSO3(%v)) = %v", w, got)
		}
	}
}

func TestLogSO3Identity(t *testing.T) {
	if got := LogSO3(Identity3()); got.Norm() > tol {
		t.Fatalf("LogSO3(I) = %v", got)
	}
}

func TestLogSO3NearPi(t *testing.T) {
	w := V3(0, 0, math.Pi-1e-8)
	r := ExpSO3(w)
	got := LogSO3(r)
	if math.Abs(got.Norm()-w.Norm()) > 1e-5 {
		t.Fatalf("near-π log norm = %v, want %v", got.Norm(), w.Norm())
	}
}

func TestRotXYZ(t *testing.T) {
	if !vecAlmostEqual(RotZ(math.Pi/2).MulVec(V3(1, 0, 0)), V3(0, 1, 0), tol) {
		t.Fatal("RotZ(90°)·x != y")
	}
}

func TestPoseComposeInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		p := Pose{R: randRot(rng), T: randVec(rng, 5)}
		q := p.Mul(p.Inverse())
		if !matAlmostEqual(q.R, Identity3(), 1e-9) || q.T.Norm() > 1e-9 {
			t.Fatalf("P·P⁻¹ != I: %+v", q)
		}
	}
}

func TestPoseApplyComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		a := Pose{R: randRot(rng), T: randVec(rng, 2)}
		b := Pose{R: randRot(rng), T: randVec(rng, 2)}
		p := randVec(rng, 4)
		if !vecAlmostEqual(a.Mul(b).Apply(p), a.Apply(b.Apply(p)), 1e-9) {
			t.Fatal("(a∘b)(p) != a(b(p))")
		}
	}
}

func TestExpLogSE3Roundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		v := randVec(rng, 2)
		w := randVec(rng, 2)
		if w.Norm() > math.Pi-0.05 {
			w = w.Normalized().Scale(rng.Float64() * (math.Pi - 0.05))
		}
		p := ExpSE3(v, w)
		gv, gw := LogSE3(p)
		if !vecAlmostEqual(gv, v, 1e-6) || !vecAlmostEqual(gw, w, 1e-6) {
			t.Fatalf("LogSE3(ExpSE3(%v,%v)) = (%v,%v)", v, w, gv, gw)
		}
	}
}

func TestExpSE3SmallAngle(t *testing.T) {
	p := ExpSE3(V3(1e-14, 0, 0), V3(0, 1e-14, 0))
	if !matAlmostEqual(p.R, Identity3(), 1e-10) {
		t.Fatal("tiny twist should be ≈ identity rotation")
	}
}

func TestOrthonormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := randRot(rng)
	// Perturb the rotation slightly.
	for i := range r {
		r[i] += 1e-4 * (rng.Float64() - 0.5)
	}
	p := Pose{R: r, T: V3(1, 2, 3)}.Orthonormalize()
	if !matAlmostEqual(p.R.Mul(p.R.Transpose()), Identity3(), 1e-12) {
		t.Fatal("orthonormalized R not orthogonal")
	}
	if math.Abs(p.R.Det()-1) > 1e-12 {
		t.Fatalf("det = %v", p.R.Det())
	}
}

func TestDistanceAndRotationAngle(t *testing.T) {
	a := IdentityPose()
	b := Pose{R: RotZ(0.5), T: V3(3, 4, 0)}
	if got := Distance(a, b); got != 5 {
		t.Fatalf("Distance = %v", got)
	}
	if got := RotationAngle(a, b); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("RotationAngle = %v", got)
	}
}

func TestQuatMatRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		r := randRot(rng)
		q := QuatFromMat(r)
		if !matAlmostEqual(q.Mat(), r, 1e-9) {
			t.Fatalf("Quat↔Mat roundtrip failed for %v", r)
		}
	}
}

func TestQuatNormPreserved(t *testing.T) {
	f := func(ax, ay, az, angle float64) bool {
		axis := V3(boundedUnit(ax), boundedUnit(ay), boundedUnit(az))
		q := QuatFromMat(ExpSO3(axis.Normalized().Scale(boundedUnit(angle) * math.Pi)))
		return math.Abs(q.Norm()-1) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSolve6RecoversSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		// Build SPD A = JᵀJ from a random 12×6 Jacobian.
		var j [12][6]float64
		for r := range j {
			for c := range j[r] {
				j[r][c] = rng.NormFloat64()
			}
		}
		var a [36]float64
		for r := 0; r < 6; r++ {
			for c := 0; c < 6; c++ {
				s := 0.0
				for k := range j {
					s += j[k][r] * j[k][c]
				}
				a[r*6+c] = s
			}
		}
		var x [6]float64
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var b [6]float64
		for r := 0; r < 6; r++ {
			for c := 0; c < 6; c++ {
				b[r] += a[r*6+c] * x[c]
			}
		}
		got, err := Solve6(&a, &b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				t.Fatalf("Solve6: got %v want %v", got, x)
			}
		}
	}
}

func TestSolve6SingularDetected(t *testing.T) {
	var a [36]float64 // all zeros
	var b [6]float64
	b[0] = 1
	if _, err := Solve6(&a, &b); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolve3(t *testing.T) {
	a := [9]float64{2, 1, 0, 1, 3, 1, 0, 1, 2}
	want := [3]float64{1, -2, 3}
	var b [3]float64
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			b[r] += a[r*3+c] * want[c]
		}
	}
	got, err := Solve3(&a, &b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("Solve3 = %v, want %v", got, want)
		}
	}
}

func TestSolve3Singular(t *testing.T) {
	a := [9]float64{1, 2, 3, 2, 4, 6, 0, 0, 1} // rank 2
	b := [3]float64{1, 2, 3}
	if _, err := Solve3(&a, &b); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient system")
	}
}

func BenchmarkExpSO3(b *testing.B) {
	w := V3(0.1, 0.2, 0.3)
	for i := 0; i < b.N; i++ {
		_ = ExpSO3(w)
	}
}

func BenchmarkSolve6(b *testing.B) {
	var a [36]float64
	for i := 0; i < 6; i++ {
		a[i*6+i] = 4
		if i > 0 {
			a[i*6+i-1] = 1
			a[(i-1)*6+i] = 1
		}
	}
	bb := [6]float64{1, 2, 3, 4, 5, 6}
	for i := 0; i < b.N; i++ {
		if _, err := Solve6(&a, &bb); err != nil {
			b.Fatal(err)
		}
	}
}
