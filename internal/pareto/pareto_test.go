package pareto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func pt(id int64, objs ...float64) Point { return Point{ID: id, Objs: objs} }

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict improvement
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
		{[]float64{1, 1, 1}, []float64{1, 1, 2}, true},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Fatalf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFront2DSimple(t *testing.T) {
	points := []Point{
		pt(0, 1, 5),
		pt(1, 2, 4),
		pt(2, 3, 3),
		pt(3, 2, 6),  // dominated by (1)
		pt(4, 10, 1), // corner
		pt(5, 1, 6),  // dominated by (0)
	}
	f := Front(points)
	wantIDs := []int64{0, 1, 2, 4}
	if len(f) != len(wantIDs) {
		t.Fatalf("front size = %d (%v), want %d", len(f), f, len(wantIDs))
	}
	for i, id := range wantIDs {
		if f[i].ID != id {
			t.Fatalf("front = %v, want IDs %v", f, wantIDs)
		}
	}
}

func TestFront2DDuplicateHandling(t *testing.T) {
	// Locks the duplicate semantics of the 2-D sweep: points with identical
	// objective vectors are kept exactly once, lowest ID first, regardless
	// of input order — including repeated entries of the same ID.
	points := []Point{
		pt(9, 1, 5),
		pt(2, 1, 5), // duplicate vector, lower ID: this one survives
		pt(5, 1, 5), // duplicate vector
		pt(2, 1, 5), // exact duplicate entry of the kept point
		pt(4, 3, 2),
		pt(4, 3, 2), // exact duplicate entry
		pt(7, 2, 6), // dominated by (2, 1 5)
	}
	for trial := 0; trial < 5; trial++ {
		f := Front(points)
		wantIDs := []int64{2, 4}
		if len(f) != len(wantIDs) {
			t.Fatalf("front = %v, want IDs %v", f, wantIDs)
		}
		for i, id := range wantIDs {
			if f[i].ID != id {
				t.Fatalf("front = %v, want IDs %v", f, wantIDs)
			}
		}
		// Shift input order; the output must not depend on it.
		points = append(points[1:], points[0])
	}
}

func TestFrontInPlaceMatchesFront(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points := make([]Point, 500)
	for i := range points {
		points[i] = pt(int64(i), math.Round(rng.Float64()*20), math.Round(rng.Float64()*20))
	}
	want := Front(points) // copies: points keeps its order
	scratch := append([]Point(nil), points...)
	got := FrontInPlace(scratch)
	if len(got) != len(want) {
		t.Fatalf("FrontInPlace size %d, Front size %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("front %d: ID %d vs %d", i, got[i].ID, want[i].ID)
		}
	}
	// Front must have left its input untouched even though FrontInPlace may
	// reorder.
	for i := range points {
		if points[i].ID != int64(i) {
			t.Fatal("Front reordered its input")
		}
	}
}

func TestFrontEmpty(t *testing.T) {
	if got := Front(nil); got != nil {
		t.Fatalf("Front(nil) = %v", got)
	}
}

func TestFrontSinglePoint(t *testing.T) {
	f := Front([]Point{pt(7, 3, 3)})
	if len(f) != 1 || f[0].ID != 7 {
		t.Fatalf("Front single = %v", f)
	}
}

func TestFrontDuplicateObjectives(t *testing.T) {
	f := Front([]Point{pt(1, 2, 2), pt(2, 2, 2), pt(3, 2, 2)})
	if len(f) != 1 {
		t.Fatalf("duplicates should collapse to one, got %v", f)
	}
}

func TestFront3D(t *testing.T) {
	points := []Point{
		pt(0, 1, 2, 3),
		pt(1, 3, 2, 1),
		pt(2, 2, 2, 2),
		pt(3, 3, 3, 3), // dominated by 2
		pt(4, 1, 2, 3), // duplicate of 0
	}
	f := Front(points)
	if len(f) != 3 {
		t.Fatalf("3D front = %v", f)
	}
	for _, p := range f {
		if p.ID == 3 || p.ID == 4 {
			t.Fatalf("dominated/duplicate point %d kept", p.ID)
		}
	}
}

// Property: no point in the front is dominated by any input point, and
// every input point is dominated-or-equal by some front point.
func TestFrontInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60
		points := make([]Point, n)
		for i := range points {
			points[i] = pt(int64(i), math.Round(rng.Float64()*10), math.Round(rng.Float64()*10))
		}
		front := Front(points)
		for _, fp := range front {
			for _, p := range points {
				if Dominates(p.Objs, fp.Objs) {
					return false // front point dominated
				}
			}
		}
		for _, p := range points {
			covered := false
			for _, fp := range front {
				if Dominates(fp.Objs, p.Objs) || equalObjs(fp.Objs, p.Objs) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		// Idempotence.
		return len(Front(front)) == len(front)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFront2DMatchesKD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 40
		points := make([]Point, n)
		for i := range points {
			points[i] = pt(int64(i), math.Round(rng.Float64()*8), math.Round(rng.Float64()*8))
		}
		a := front2D(points)
		b := frontKD(points)
		if len(a) != len(b) {
			t.Fatalf("2D fast path disagrees with k-D: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("front mismatch at %d: %v vs %v", i, a, b)
			}
		}
	}
}

func TestHypervolume2D(t *testing.T) {
	// Single point (1,1) with ref (3,3): rectangle 2x2 = 4.
	hv := Hypervolume2D([]Point{pt(0, 1, 1)}, [2]float64{3, 3})
	if math.Abs(hv-4) > 1e-12 {
		t.Fatalf("hv = %v, want 4", hv)
	}
	// Two points staircase: (1,2) and (2,1), ref (3,3):
	// area = 2x1 + 1x2 ... union = 3? Compute: region dominated =
	// [1,3]x[2,3] ∪ [2,3]x[1,3] = 2 + 2 - 1 = 3.
	hv = Hypervolume2D([]Point{pt(0, 1, 2), pt(1, 2, 1)}, [2]float64{3, 3})
	if math.Abs(hv-3) > 1e-12 {
		t.Fatalf("hv = %v, want 3", hv)
	}
	// Point beyond the reference contributes nothing.
	hv = Hypervolume2D([]Point{pt(0, 4, 4)}, [2]float64{3, 3})
	if hv != 0 {
		t.Fatalf("hv = %v, want 0", hv)
	}
}

func TestHypervolumeMonotoneUnderImprovement(t *testing.T) {
	ref := [2]float64{10, 10}
	base := []Point{pt(0, 4, 4)}
	better := []Point{pt(0, 4, 4), pt(1, 2, 6)}
	if Hypervolume2D(better, ref) <= Hypervolume2D(base, ref) {
		t.Fatal("adding a non-dominated point must increase hypervolume")
	}
}

func TestBestBy(t *testing.T) {
	if _, ok := BestBy(nil, 0); ok {
		t.Fatal("BestBy(nil) should report !ok")
	}
	points := []Point{pt(0, 5, 1), pt(1, 2, 9), pt(2, 7, 0.5)}
	best, ok := BestBy(points, 0)
	if !ok || best.ID != 1 {
		t.Fatalf("BestBy obj0 = %v", best)
	}
	best, _ = BestBy(points, 1)
	if best.ID != 2 {
		t.Fatalf("BestBy obj1 = %v", best)
	}
}

func TestBestUnderConstraint(t *testing.T) {
	points := []Point{
		pt(0, 0.10, 0.044), // runtime, ATE
		pt(1, 0.05, 0.060), // fast but invalid
		pt(2, 0.07, 0.049),
	}
	best, ok := BestUnderConstraint(points, 0, 1, 0.05)
	if !ok || best.ID != 2 {
		t.Fatalf("BestUnderConstraint = %v, %v", best, ok)
	}
	_, ok = BestUnderConstraint(points, 0, 1, 0.01)
	if ok {
		t.Fatal("no point should satisfy ATE < 0.01")
	}
}

func TestContainsAndIDs(t *testing.T) {
	points := []Point{pt(3, 1, 1), pt(9, 2, 2)}
	ids := IDs(points)
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 9 {
		t.Fatalf("IDs = %v", ids)
	}
}

func BenchmarkFront2D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	points := make([]Point, 4000)
	for i := range points {
		points[i] = pt(int64(i), rng.Float64(), rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Front(points)
	}
}

func BenchmarkFront3D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	points := make([]Point, 500)
	for i := range points {
		points[i] = pt(int64(i), rng.Float64(), rng.Float64(), rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Front(points)
	}
}
