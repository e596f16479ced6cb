package scene

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestSphereSDF(t *testing.T) {
	s := Sphere{Center: geom.V3(1, 0, 0), Radius: 0.5, Shade: 0.8}
	if d := s.Dist(geom.V3(1, 0, 0)); math.Abs(d+0.5) > 1e-12 {
		t.Fatalf("center dist = %v, want -0.5", d)
	}
	if d := s.Dist(geom.V3(2, 0, 0)); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("outside dist = %v, want 0.5", d)
	}
	if d := s.Dist(geom.V3(1.5, 0, 0)); math.Abs(d) > 1e-12 {
		t.Fatalf("surface dist = %v, want 0", d)
	}
	if s.Albedo(geom.V3(0, 0, 0)) != 0.8 {
		t.Fatal("albedo wrong")
	}
}

func TestBoxSDF(t *testing.T) {
	b := Box{Center: geom.Vec3{}, Half: geom.V3(1, 1, 1), Shade: 0.5}
	if d := b.Dist(geom.V3(0, 0, 0)); math.Abs(d+1) > 1e-12 {
		t.Fatalf("center = %v, want -1", d)
	}
	if d := b.Dist(geom.V3(2, 0, 0)); math.Abs(d-1) > 1e-12 {
		t.Fatalf("face dist = %v, want 1", d)
	}
	// Corner distance: point (2,2,2) to corner (1,1,1) = √3.
	if d := b.Dist(geom.V3(2, 2, 2)); math.Abs(d-math.Sqrt(3)) > 1e-12 {
		t.Fatalf("corner dist = %v", d)
	}
}

func TestBoxRounding(t *testing.T) {
	sharp := Box{Half: geom.V3(1, 1, 1)}
	round := Box{Half: geom.V3(1, 1, 1), Round: 0.1}
	p := geom.V3(1.5, 0, 0)
	if round.Dist(p) >= sharp.Dist(p) {
		t.Fatal("rounding must inflate the surface")
	}
}

func TestCylinderSDF(t *testing.T) {
	c := CylinderY{Center: geom.Vec3{}, Radius: 0.5, Half: 1, Shade: 0.5}
	if d := c.Dist(geom.V3(1, 0, 0)); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("radial dist = %v", d)
	}
	if d := c.Dist(geom.V3(0, 2, 0)); math.Abs(d-1) > 1e-12 {
		t.Fatalf("axial dist = %v", d)
	}
	if d := c.Dist(geom.V3(0, 0, 0)); d >= 0 {
		t.Fatalf("inside dist = %v, want negative", d)
	}
}

func TestCheckerAlbedoAlternates(t *testing.T) {
	c := Checker{
		Box:       Box{Half: geom.V3(5, 0.1, 5), Shade: 0.6},
		CheckSize: 1, Shade2: 0.2,
	}
	a := c.Albedo(geom.V3(0.5, 0, 0.5))
	b := c.Albedo(geom.V3(1.5, 0, 0.5))
	if a == b {
		t.Fatal("checker does not alternate")
	}
}

func TestStripedAlbedoVaries(t *testing.T) {
	b := Box{Half: geom.V3(1, 1, 1), Shade: 0.5, Stripes: 8}
	seen := map[float64]bool{}
	for i := 0; i < 20; i++ {
		seen[b.Albedo(geom.V3(float64(i)*0.1, 0, 0))] = true
	}
	if len(seen) < 5 {
		t.Fatal("striped albedo should vary across the surface")
	}
}

func TestSceneDistIsMinOfObjects(t *testing.T) {
	s := New(
		Sphere{Center: geom.V3(0, 0, 0), Radius: 1, Shade: 0.2},
		Sphere{Center: geom.V3(5, 0, 0), Radius: 1, Shade: 0.9},
	)
	p := geom.V3(3, 0, 0)
	want := math.Min(p.Norm()-1, p.Sub(geom.V3(5, 0, 0)).Norm()-1)
	if d := s.Dist(p); math.Abs(d-want) > 1e-12 {
		t.Fatalf("scene dist = %v, want %v", d, want)
	}
	d, a := s.DistAlbedo(geom.V3(4.5, 0, 0))
	if a != 0.9 {
		t.Fatalf("nearest albedo = %v (d=%v)", a, d)
	}
}

func TestSceneNormalSphere(t *testing.T) {
	s := New(Sphere{Radius: 1, Shade: 0.5})
	n := s.Normal(geom.V3(1, 0, 0))
	if n.Sub(geom.V3(1, 0, 0)).Norm() > 1e-3 {
		t.Fatalf("sphere normal = %v", n)
	}
}

// Property: any SDF in the living room is 1-Lipschitz (|d(p)-d(q)| <= |p-q|),
// which sphere tracing depends on for correctness.
func TestLivingRoomLipschitz(t *testing.T) {
	room := LivingRoom()
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := geom.V3(r.Float64()*6-3, r.Float64()*3, r.Float64()*5-2.5)
		q := p.Add(geom.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()).Scale(0.1))
		dp := room.Dist(p)
		dq := room.Dist(q)
		return math.Abs(dp-dq) <= p.Sub(q).Norm()+1e-9
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLivingRoomCameraRegionIsFree(t *testing.T) {
	// The trajectory orbits at radius ≈1.0–1.3, height ≈1.1–1.45; that
	// region must be free space with clearance for the camera.
	room := LivingRoom()
	for ang := 0.0; ang < 2*math.Pi; ang += 0.2 {
		for _, r := range []float64{0.8, 1.05, 1.3} {
			for _, h := range []float64{1.05, 1.25, 1.45} {
				p := geom.V3(r*math.Cos(ang), h, r*math.Sin(ang))
				if d := room.Dist(p); d < 0.05 {
					t.Fatalf("camera region blocked at %v (d=%v)", p, d)
				}
			}
		}
	}
}

func TestLivingRoomEnclosed(t *testing.T) {
	room := LivingRoom()
	// Rays from the center must hit something within the room bounds in
	// every direction (the room is a closed box).
	rng := rand.New(rand.NewSource(4))
	origin := geom.V3(0, 1.3, 0)
	for i := 0; i < 50; i++ {
		dir := geom.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalized()
		t0 := 0.0
		hit := false
		for step := 0; step < 200; step++ {
			p := origin.Add(dir.Scale(t0))
			d := room.Dist(p)
			if d < 1e-3 {
				hit = true
				break
			}
			t0 += d
			if t0 > 20 {
				break
			}
		}
		if !hit {
			t.Fatalf("ray %v escaped the room", dir)
		}
	}
}

// plainDistAlbedo is the scene union without culling: every object, in
// order, the first at the minimum winning.
func plainDistAlbedo(objs []Object, p geom.Vec3) (float64, float64) {
	d, a := math.Inf(1), 0.5
	for _, o := range objs {
		if od := o.Dist(p); od < d {
			d, a = od, o.Albedo(p)
		}
	}
	return d, a
}

// plainNormal is Scene.Normal over plainDistAlbedo.
func plainNormal(objs []Object, p geom.Vec3) geom.Vec3 {
	const h = 1e-4
	dist := func(q geom.Vec3) float64 { d, _ := plainDistAlbedo(objs, q); return d }
	dx := dist(p.Add(geom.V3(h, 0, 0))) - dist(p.Sub(geom.V3(h, 0, 0)))
	dy := dist(p.Add(geom.V3(0, h, 0))) - dist(p.Sub(geom.V3(0, h, 0)))
	dz := dist(p.Add(geom.V3(0, 0, h))) - dist(p.Sub(geom.V3(0, 0, h)))
	return geom.V3(dx, dy, dz).Normalized()
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkMatchesPlainLoop asserts that the culled Dist, DistAlbedo and Normal
// of s equal the plain loop over objs, bit for bit, at p.
func checkMatchesPlainLoop(t *testing.T, s *Scene, objs []Object, p geom.Vec3) {
	t.Helper()
	wantD, wantA := plainDistAlbedo(objs, p)
	d, a := s.DistAlbedo(p)
	if !sameBits(d, wantD) || !sameBits(a, wantA) || !sameBits(s.Dist(p), wantD) {
		t.Fatalf("at %v: culled (%v, %v), Dist %v; plain loop (%v, %v)", p, d, a, s.Dist(p), wantD, wantA)
	}
	n, want := s.Normal(p), plainNormal(objs, p)
	if !sameBits(n.X, want.X) || !sameBits(n.Y, want.Y) || !sameBits(n.Z, want.Z) {
		t.Fatalf("at %v: culled normal %v, plain loop %v", p, n, want)
	}
}

// Property: bounding-sphere culling never changes a bit. Points fill the
// room and its walls, and cluster around every object, inside and out.
func TestNearestMatchesPlainLoop(t *testing.T) {
	room := LivingRoom()
	objs := make([]Object, len(room.items))
	for i, it := range room.items {
		objs[i] = it.obj
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6000; i++ {
		p := geom.V3(rng.Float64()*6-3, rng.Float64()*3.4-0.4, rng.Float64()*5-2.5)
		checkMatchesPlainLoop(t, room, objs, p)
	}
	inside := 0
	for _, o := range objs {
		c, r := o.Bound()
		for i := 0; i < 120; i++ {
			dir := geom.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalized()
			p := c.Add(dir.Scale(r * 1.5 * rng.Float64()))
			if o.Dist(p) < 0 {
				inside++
			}
			checkMatchesPlainLoop(t, room, objs, p)
		}
	}
	if inside < 1000 {
		t.Fatalf("only %d points inside objects", inside)
	}

	// Two identical spheres: the first one's albedo wins, inside and out.
	twins := []Object{
		Sphere{Center: geom.V3(0.3, 1, 0), Radius: 0.4, Shade: 0.2},
		Sphere{Center: geom.V3(0.3, 1, 0), Radius: 0.4, Shade: 0.9},
	}
	s := New(twins...)
	for i := 0; i < 200; i++ {
		p := geom.V3(rng.Float64()*2-0.7, rng.Float64()*2, rng.Float64()*2-1)
		checkMatchesPlainLoop(t, s, twins, p)
		if _, a := s.DistAlbedo(p); a != 0.2 {
			t.Fatalf("at %v: albedo %v, want the first sphere's 0.2", p, a)
		}
	}
}

func BenchmarkLivingRoomDist(b *testing.B) {
	room := LivingRoom()
	p := geom.V3(0.3, 1.2, 0.4)
	for i := 0; i < b.N; i++ {
		_ = room.Dist(p)
	}
}
