package imgproc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func constantMap(w, h int, v float32) *Map {
	m := NewMap(w, h)
	for i := range m.Pix {
		m.Pix[i] = v
	}
	return m
}

func TestMapBasics(t *testing.T) {
	m := NewMap(4, 3)
	m.Set(2, 1, 5)
	if m.At(2, 1) != 5 {
		t.Fatal("Set/At broken")
	}
	c := m.Clone()
	c.Set(2, 1, 9)
	if m.At(2, 1) != 5 {
		t.Fatal("Clone aliases source")
	}
}

func TestIntrinsicsProjectUnprojectRoundtrip(t *testing.T) {
	k := StandardIntrinsics(160, 120)
	for _, px := range [][2]int{{0, 0}, {80, 60}, {159, 119}, {10, 100}} {
		d := 2.5
		p := k.Unproject(px[0], px[1]).Scale(d)
		x, y, ok := k.Project(p)
		if !ok || x != px[0] || y != px[1] {
			t.Fatalf("roundtrip (%d,%d) -> (%d,%d,%v)", px[0], px[1], x, y, ok)
		}
	}
}

func TestProjectBehindCamera(t *testing.T) {
	k := StandardIntrinsics(64, 48)
	if _, _, ok := k.Project(geom.V3(0, 0, -1)); ok {
		t.Fatal("point behind camera projected")
	}
}

func TestScaledIntrinsics(t *testing.T) {
	k := StandardIntrinsics(160, 120)
	s := k.Scaled(2)
	if s.W != 80 || s.H != 60 {
		t.Fatalf("scaled dims %dx%d", s.W, s.H)
	}
	if math.Abs(s.Fx-k.Fx/2) > 1e-12 {
		t.Fatal("scaled focal length wrong")
	}
	if got := k.Scaled(1); got != k {
		t.Fatal("Scaled(1) must be identity")
	}
	if got := k.Halved(); got != k.Scaled(2) {
		t.Fatal("Halved != Scaled(2)")
	}
	// A ray through the center of a 2x2 block should unproject consistently.
	p := k.Unproject(10, 10)
	ps := s.Unproject(5, 5)
	if p.Sub(ps).Norm() > 0.02 {
		t.Fatalf("unprojection drift after scaling: %v vs %v", p, ps)
	}
}

func TestBlockAverage(t *testing.T) {
	src := NewMap(4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			src.Set(x, y, float32(1+x/2+2*(y/2))) // 2x2 blocks of 1,2,3,4
		}
	}
	dst, ops := BlockAverage(src, 2)
	if dst.W != 2 || dst.H != 2 {
		t.Fatalf("dims %dx%d", dst.W, dst.H)
	}
	want := []float32{1, 2, 3, 4}
	for i, v := range want {
		if dst.Pix[i] != v {
			t.Fatalf("block %d = %v, want %v", i, dst.Pix[i], v)
		}
	}
	if ops != 16 {
		t.Fatalf("ops = %d", ops)
	}
}

func TestBlockAverageInvalidHandling(t *testing.T) {
	src := NewMap(2, 2)
	src.Set(0, 0, 4) // other three invalid
	dst, _ := BlockAverage(src, 2)
	if dst.At(0, 0) != 4 {
		t.Fatal("mean of valid samples only")
	}
	empty := NewMap(2, 2)
	dst, _ = BlockAverage(empty, 2)
	if dst.At(0, 0) != 0 {
		t.Fatal("all-invalid block must stay invalid")
	}
}

func TestBlockAverageRatio1Clones(t *testing.T) {
	src := constantMap(3, 3, 2)
	dst, _ := BlockAverage(src, 1)
	dst.Set(0, 0, 9)
	if src.At(0, 0) != 2 {
		t.Fatal("ratio-1 must not alias the source")
	}
}

func TestHalfSampleDepthEdgePreserving(t *testing.T) {
	src := NewMap(4, 2)
	// Left block: 1.0 and a far outlier 3.0 — outlier must be excluded.
	src.Set(0, 0, 1.0)
	src.Set(1, 0, 3.0)
	src.Set(0, 1, 1.02)
	src.Set(1, 1, 0.98)
	dst, _ := HalfSampleDepth(src, 0.1)
	got := dst.At(0, 0)
	if math.Abs(float64(got)-1.0) > 0.03 {
		t.Fatalf("edge-preserving mean = %v, want ≈1.0", got)
	}
}

func TestBilateralPreservesConstant(t *testing.T) {
	src := constantMap(16, 16, 2.0)
	dst, ops := BilateralFilter(src, 2, 1.5, 0.1)
	for i, v := range dst.Pix {
		if math.Abs(float64(v)-2.0) > 1e-6 {
			t.Fatalf("pixel %d = %v", i, v)
		}
	}
	if ops <= 0 {
		t.Fatal("ops not counted")
	}
}

func TestBilateralPreservesEdges(t *testing.T) {
	// Step edge 1m/3m with small noise: the filter must not blur across it.
	rng := rand.New(rand.NewSource(1))
	src := NewMap(20, 20)
	for y := 0; y < 20; y++ {
		for x := 0; x < 20; x++ {
			base := float32(1.0)
			if x >= 10 {
				base = 3.0
			}
			src.Set(x, y, base+float32(rng.NormFloat64())*0.01)
		}
	}
	dst, _ := BilateralFilter(src, 2, 2.0, 0.05)
	if v := dst.At(9, 10); math.Abs(float64(v)-1.0) > 0.05 {
		t.Fatalf("left of edge = %v", v)
	}
	if v := dst.At(10, 10); math.Abs(float64(v)-3.0) > 0.05 {
		t.Fatalf("right of edge = %v", v)
	}
}

func TestBilateralReducesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := NewMap(24, 24)
	for i := range src.Pix {
		src.Pix[i] = 2.0 + float32(rng.NormFloat64())*0.03
	}
	dst, _ := BilateralFilter(src, 2, 1.5, 0.3)
	varIn, varOut := 0.0, 0.0
	for i := range src.Pix {
		varIn += (float64(src.Pix[i]) - 2) * (float64(src.Pix[i]) - 2)
		varOut += (float64(dst.Pix[i]) - 2) * (float64(dst.Pix[i]) - 2)
	}
	if varOut >= varIn/2 {
		t.Fatalf("filter did not denoise: %v -> %v", varIn, varOut)
	}
}

func TestBilateralInvalidStaysInvalid(t *testing.T) {
	src := constantMap(8, 8, 1)
	src.Set(3, 3, 0)
	dst, _ := BilateralFilter(src, 1, 1, 0.1)
	if dst.At(3, 3) != 0 {
		t.Fatal("invalid pixel became valid")
	}
}

func TestDepthToVertexGeometry(t *testing.T) {
	k := StandardIntrinsics(32, 24)
	depth := constantMap(32, 24, 2)
	v := DepthToVertex(depth, k)
	// Center pixel: vertex ≈ (0, 0, 2).
	c := v.At(16, 12)
	if math.Abs(c.Z-2) > 1e-6 || math.Abs(c.X) > 0.1 || math.Abs(c.Y) > 0.1 {
		t.Fatalf("center vertex = %v", c)
	}
	// Invalid depth gives zero vertex.
	depth.Set(5, 5, 0)
	v = DepthToVertex(depth, k)
	if v.ValidAt(5, 5) {
		t.Fatal("invalid depth produced a vertex")
	}
}

func TestVertexToNormalPlane(t *testing.T) {
	// A fronto-parallel plane at z=2 must give normals ≈ (0,0,-1)
	// (pointing back at the camera).
	k := StandardIntrinsics(32, 24)
	depth := constantMap(32, 24, 2)
	v := DepthToVertex(depth, k)
	n := VertexToNormal(v)
	c := n.At(16, 12)
	if math.Abs(c.Z+1) > 1e-6 {
		t.Fatalf("plane normal = %v, want (0,0,-1)", c)
	}
}

func TestVertexToNormalInvalidNeighbor(t *testing.T) {
	k := StandardIntrinsics(8, 8)
	depth := constantMap(8, 8, 1)
	depth.Set(4, 4, 0)
	n := VertexToNormal(DepthToVertex(depth, k))
	if n.ValidAt(4, 4) || n.ValidAt(3, 4) {
		t.Fatal("normals near invalid vertices must be invalid")
	}
}

func TestHalfSampleIntensity(t *testing.T) {
	src := NewMap(4, 2)
	for i := range src.Pix {
		src.Pix[i] = float32(i)
	}
	dst, _ := HalfSampleIntensity(src)
	// Block (0,0) holds pixels 0,1,4,5 -> mean 2.5.
	if dst.At(0, 0) != 2.5 {
		t.Fatalf("half sample = %v", dst.At(0, 0))
	}
}

func TestGradient(t *testing.T) {
	src := NewMap(5, 5)
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			src.Set(x, y, float32(2*x+3*y))
		}
	}
	gx, gy := Gradient(src)
	if gx.At(2, 2) != 2 || gy.At(2, 2) != 3 {
		t.Fatalf("gradient = (%v, %v), want (2, 3)", gx.At(2, 2), gy.At(2, 2))
	}
}

func TestSampleBilinear(t *testing.T) {
	src := NewMap(2, 2)
	src.Set(0, 0, 0)
	src.Set(1, 0, 1)
	src.Set(0, 1, 2)
	src.Set(1, 1, 3)
	v, ok := SampleBilinear(src, 0.5, 0.5)
	if !ok || v != 1.5 {
		t.Fatalf("bilinear = %v, %v", v, ok)
	}
	if _, ok := SampleBilinear(src, -0.1, 0); ok {
		t.Fatal("out of bounds accepted")
	}
	if _, ok := SampleBilinear(src, 1.2, 0); ok {
		t.Fatal("out of bounds accepted")
	}
}

func BenchmarkBilateral160x120(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := NewMap(160, 120)
	for i := range src.Pix {
		src.Pix[i] = 2 + float32(rng.NormFloat64())*0.02
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = BilateralFilter(src, 2, 1.5, 0.1)
	}
}

func BenchmarkDepthToVertex(b *testing.B) {
	k := StandardIntrinsics(160, 120)
	src := constantMap(160, 120, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DepthToVertex(src, k)
	}
}
