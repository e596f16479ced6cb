package pareto

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bruteFront is the definition of Front, spelled out pairwise: a point with
// a NaN objective is never a member; otherwise a point is a member unless
// another dominates it or equals it with a lower ID. The scan checks both in
// one loop and stops at the first hit, so it is O(n²) only on inputs where
// most points are members. Sorted like Front's output.
func bruteFront(points []Point) []Point {
	var clean []Point
	for _, p := range points {
		if !slices.ContainsFunc(p.Objs, math.IsNaN) {
			clean = append(clean, p)
		}
	}
	var out []Point
	for i, p := range clean {
		member := true
		for j, q := range clean {
			if i != j && (Dominates(q.Objs, p.Objs) || (q.ID < p.ID && equalObjs(q.Objs, p.Objs))) {
				member = false
				break
			}
		}
		if member {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b Point) int {
		if c := slices.Compare(a.Objs, b.Objs); c != 0 {
			return c
		}
		return int(a.ID - b.ID)
	})
	return out
}

// bruteHypervolume2D sums, over the gaps between consecutive distinct obj0
// values, gap width × the tallest rectangle any point at or left of the gap
// reaches up to the reference. No front is computed.
func bruteHypervolume2D(points []Point, ref [2]float64) float64 {
	var xs []float64
	for _, p := range points {
		if p.Objs[0] < ref[0] && p.Objs[1] < ref[1] {
			xs = append(xs, p.Objs[0])
		}
	}
	xs = append(xs, ref[0])
	slices.Sort(xs)
	xs = slices.Compact(xs)
	hv := 0.0
	for i := 0; i+1 < len(xs); i++ {
		best := ref[1]
		for _, p := range points {
			if p.Objs[0] <= xs[i] && p.Objs[1] < best {
				best = p.Objs[1]
			}
		}
		hv += (xs[i+1] - xs[i]) * (ref[1] - best)
	}
	return hv
}

// samePoints reports whether two fronts are the same IDs with bit-equal
// objectives in the same order.
func samePoints(a, b []Point) bool {
	return slices.EqualFunc(a, b, func(p, q Point) bool {
		return p.ID == q.ID && slices.EqualFunc(p.Objs, q.Objs, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
	})
}

// frontInputs are the seeded input shapes of the differential tests. Each
// builds n k-objective points with IDs 0..n-1 assigned in a shuffled order,
// so the lowest ID of a duplicate group is rarely the first one met.
var frontInputs = []struct {
	name     string
	allFront bool // (nearly) every point is a front member: brute force is truly O(n²)
	finite   bool // usable for the hypervolume comparison
	gen      func(rng *rand.Rand, n, k int) []Point
}{
	{"uniform", false, true, func(rng *rand.Rand, n, k int) []Point {
		return genPoints(rng, n, k, func(int, int) float64 { return rng.Float64() })
	}},
	{"heavy-ties", false, true, func(rng *rand.Rand, n, k int) []Point {
		return genPoints(rng, n, k, func(int, int) float64 { return float64(rng.Intn(12)) })
	}},
	{"exact-duplicates", false, true, func(rng *rand.Rand, n, k int) []Point {
		// Every vector appears about eight times under different IDs.
		base := genPoints(rng, max(1, n/8), k, func(int, int) float64 { return rng.Float64() })
		return genPoints(rng, n, k, func(i, j int) float64 { return base[i%len(base)].Objs[j] })
	}},
	{"infinities", false, false, func(rng *rand.Rand, n, k int) []Point {
		return genPoints(rng, n, k, func(int, int) float64 {
			switch rng.Intn(10) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return float64(rng.Intn(50))
		})
	}},
	{"nan-sprinkled", false, false, func(rng *rand.Rand, n, k int) []Point {
		return genPoints(rng, n, k, func(int, int) float64 {
			if rng.Intn(7) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(40))
		})
	}},
	{"all-equal", false, true, func(rng *rand.Rand, n, k int) []Point {
		return genPoints(rng, n, k, func(int, int) float64 { return 3 })
	}},
	{"sorted-trade-off", true, true, func(rng *rand.Rand, n, k int) []Point {
		// Ascending in obj0, descending in the rest, in input order.
		return genPoints(rng, n, k, func(i, j int) float64 {
			if j == 0 {
				return float64(i / 2) // pairs tie in obj0
			}
			return float64(n - i)
		})
	}},
	{"reverse-sorted-trade-off", true, true, func(rng *rand.Rand, n, k int) []Point {
		return genPoints(rng, n, k, func(i, j int) float64 {
			if j == 0 {
				return float64(n - i)
			}
			return float64(i / 2)
		})
	}},
	{"sorted-dominated", false, true, func(rng *rand.Rand, n, k int) []Point {
		// Ascending in every objective: the first point dominates the rest.
		return genPoints(rng, n, k, func(i, j int) float64 { return float64(i + j) })
	}},
}

func genPoints(rng *rand.Rand, n, k int, value func(i, j int) float64) []Point {
	ids := rng.Perm(n)
	pts := make([]Point, n)
	for i := range pts {
		objs := make([]float64, k)
		for j := range objs {
			objs[j] = value(i, j)
		}
		pts[i] = Point{ID: int64(ids[i]), Objs: objs}
	}
	return pts
}

func TestFrontMatchesBruteForce(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 17, 300, prefilterMin - 1, prefilterMin, prefilterMin + 1, 10 * prefilterMin}
	for _, in := range frontInputs {
		for _, n := range sizes {
			if in.allFront && n > prefilterMin+1 {
				continue // 10⁹ pairwise checks buy nothing the threshold sizes do not
			}
			t.Run(fmt.Sprintf("%s/n=%d", in.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n) + 1))
				points := in.gen(rng, n, 2)
				original := slices.Clone(points)
				want := bruteFront(points)

				got := Front(points)
				if !samePoints(got, want) {
					t.Fatalf("Front: %d points, brute force %d\n got  %v\n want %v", len(got), len(want), head(got), head(want))
				}
				if !samePoints(points, original) {
					t.Fatal("Front reordered or rewrote its input")
				}

				got = FrontInPlace(points)
				if !samePoints(got, want) {
					t.Fatalf("FrontInPlace: %d points, brute force %d\n got  %v\n want %v", len(got), len(want), head(got), head(want))
				}
				// "May reorder" is the whole licence: the argument must
				// still hold exactly the points it was given.
				byID := func(a, b Point) int { return int(a.ID - b.ID) }
				slices.SortFunc(points, byID)
				slices.SortFunc(original, byID)
				if !samePoints(points, original) {
					t.Fatal("FrontInPlace lost or duplicated input points")
				}
			})
		}
	}
}

func head(p []Point) []Point { return p[:min(len(p), 8)] }

func TestFrontKDMatchesBruteForce(t *testing.T) {
	for _, in := range frontInputs {
		for _, n := range []int{0, 1, 2, 40, 400} {
			t.Run(fmt.Sprintf("%s/n=%d", in.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n) + 2))
				points := in.gen(rng, n, 3)
				// The k-objective filter keeps the first of several equal
				// vectors in input order; feed it in ID order so that is the
				// lowest ID, the rule brute force applies.
				slices.SortFunc(points, func(a, b Point) int { return int(a.ID - b.ID) })
				want := bruteFront(points)
				if got := Front(points); !samePoints(got, want) {
					t.Fatalf("Front: got %v want %v", head(got), head(want))
				}
				if got := FrontInPlace(points); !samePoints(got, want) {
					t.Fatalf("FrontInPlace: got %v want %v", head(got), head(want))
				}
			})
		}
	}
}

func TestHypervolume2DMatchesBruteForce(t *testing.T) {
	for _, in := range frontInputs {
		if !in.finite {
			continue
		}
		for _, n := range []int{0, 1, 2, 17, 300, prefilterMin + 1} {
			t.Run(fmt.Sprintf("%s/n=%d", in.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n) + 3))
				points := in.gen(rng, n, 2)
				// A reference inside the cloud, so some points fall at or
				// beyond it and must contribute nothing.
				ref := [2]float64{0.8, 0.8}
				if n > 0 {
					ref = [2]float64{points[n/2].Objs[0] + 0.5, points[n/3].Objs[1] + 0.5}
				}
				got, want := Hypervolume2D(points, ref), bruteHypervolume2D(points, ref)
				if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("Hypervolume2D = %v, brute force %v", got, want)
				}
				if kd := Hypervolume(points, ref[:]); kd != got {
					t.Fatalf("Hypervolume = %v, Hypervolume2D = %v", kd, got)
				}
			})
		}
	}
}

func TestColumnCandidatesKeepTheFront(t *testing.T) {
	// FrontInPlace over the candidates ColumnCandidates keeps must be Front
	// over the whole pool — every input shape, NaN and exact duplicates
	// included, both sides of prefilterMin, with and without a row list
	// (then the pool's points sit at scattered rows of longer columns, the
	// other rows holding values that would dominate everything).
	for _, in := range frontInputs {
		for _, k := range []int{2, 3} {
			sizes := []int{0, 1, 17, prefilterMin - 1, prefilterMin, prefilterMin + 1, 10 * prefilterMin}
			if k == 3 {
				sizes = []int{0, 1, 40, 400}
			}
			for _, n := range sizes {
				if in.allFront && n > prefilterMin+1 {
					continue
				}
				for _, scattered := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/k=%d/n=%d/scattered=%v", in.name, k, n, scattered), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(n) + 4))
						points := in.gen(rng, n, k)
						want := Front(points)

						var rows []int64
						length := n
						if scattered {
							length = 2*n + 3
							rows = []int64{}
							for _, r := range rng.Perm(length)[:n] {
								rows = append(rows, int64(r))
							}
						}
						cols := make([][]float64, k)
						for j := range cols {
							cols[j] = make([]float64, length)
							for r := range cols[j] {
								cols[j][r] = math.Inf(-1)
							}
							for i, p := range points {
								r := i
								if scattered {
									r = int(rows[i])
								}
								cols[j][r] = p.Objs[j]
							}
						}
						keep := ColumnCandidates(nil, cols, rows)
						if !slices.IsSorted(keep) {
							t.Fatal("candidates are not in pool order")
						}
						cands := make([]Point, len(keep))
						for c, i := range keep {
							if slices.ContainsFunc(points[i].Objs, math.IsNaN) {
								t.Fatalf("candidate %d has a NaN objective", i)
							}
							cands[c] = points[i]
						}
						if in.name == "uniform" && k == 2 && n > prefilterMin && len(keep) > n/2 {
							t.Errorf("%d candidates of %d points: the prefilter barely ran", len(keep), n)
						}
						if got := FrontInPlace(cands); !samePoints(got, want) {
							t.Fatalf("front of %d candidates: %d points, Front %d\n got  %v\n want %v",
								len(keep), len(got), len(want), head(got), head(want))
						}
					})
				}
			}
		}
	}
}

func TestFrontSkipsNaNPoints(t *testing.T) {
	// ROADMAP's probe: among five points two carry a NaN objective. Under
	// the old comparator NaN sorted as "equal to everything", the sweep met
	// a NaN point first, and the reported front was that point alone.
	points := []Point{
		pt(0, 2, 3),
		pt(1, math.NaN(), 0),
		pt(2, 1, 5),
		pt(3, 0, math.NaN()),
		pt(4, 4, 1),
	}
	want := []int64{2, 0, 4}
	if got := IDs(Front(points)); !slices.Equal(got, want) {
		t.Fatalf("Front IDs = %v, want %v", got, want)
	}
	if got := IDs(FrontInPlace(slices.Clone(points))); !slices.Equal(got, want) {
		t.Fatalf("FrontInPlace IDs = %v, want %v", got, want)
	}
	// Same rule on the k-objective path, where a NaN point used to
	// "dominate" anything it tied or beat on its remaining objectives.
	kd := []Point{
		pt3(0, 2, 3, 1),
		pt3(1, math.NaN(), 0, 0),
		pt3(2, 1, 5, 1),
		pt3(3, 0, 0, math.NaN()),
		pt3(4, 4, 1, 1),
	}
	if got := IDs(Front(kd)); !slices.Equal(got, want) {
		t.Fatalf("3-objective Front IDs = %v, want %v", got, want)
	}
	if got := Front([]Point{pt(7, math.NaN(), math.NaN())}); len(got) != 0 {
		t.Fatalf("front of a lone NaN point = %v, want empty", got)
	}
	// An infinite objective is a value like any other: the only point of a
	// set is its front.
	if got := IDs(Front([]Point{pt(5, 1, math.Inf(1))})); !slices.Equal(got, []int64{5}) {
		t.Fatalf("front of a lone +Inf point = %v, want [5]", got)
	}
}

func TestPrefilterAllocationFree(t *testing.T) {
	// The pre-filter's sample and staircase live in a fixed stack buffer.
	rng := rand.New(rand.NewSource(1))
	master := genPoints(rng, 10*prefilterMin, 2, func(int, int) float64 { return rng.Float64() })
	points := make([]Point, len(master))
	allocs := testing.AllocsPerRun(20, func() {
		copy(points, master)
		if kept := prefilter2D(points); len(kept) == 0 || len(kept) == len(points) {
			t.Fatalf("pre-filter kept %d of %d points", len(kept), len(points))
		}
	})
	if allocs != 0 {
		t.Fatalf("pre-filter allocated %v times per run, want 0", allocs)
	}
}

// poolColumns is a prediction pool's two objective columns in design-space
// order over an a×b×c grid carrying a smooth two-objective trade-off.
func poolColumns(n int) [][]float64 {
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	side := int(math.Cbrt(float64(n))) + 1
	for i := 0; i < n; i++ {
		a := float64(i/(side*side)) / float64(side) * 4
		bb := float64(i/side%side) / float64(side) * 4
		c := float64(i%side) / float64(side)
		cols[0][i] = a + 0.5*bb + c
		cols[1][i] = (4-a)*(4-a) + (4 - bb) + 0.3*math.Sin(9*c)
	}
	return cols
}

// BenchmarkFrontInPlace filters prediction-pool-shaped inputs at a
// subsampled pool's size (5 000), KFusion's (60 000) and the largest
// enumerable pool's (192 000).
func BenchmarkFrontInPlace(b *testing.B) {
	for _, n := range []int{5_000, 60_000, 192_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cols := poolColumns(n)
			objs := make([]float64, 2*n)
			for i := 0; i < n; i++ {
				objs[2*i], objs[2*i+1] = cols[0][i], cols[1][i]
			}
			pts := make([]Point, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := range pts { // FrontInPlace reorders its input
					pts[j] = Point{ID: int64(j), Objs: objs[2*j : 2*j+2]}
				}
				b.StartTimer()
				if len(FrontInPlace(pts)) == 0 {
					b.Fatal("empty front")
				}
			}
		})
	}
}

// BenchmarkPoolFront takes the front of the 192 000-point inproc_pool192k
// pool from its prediction columns, both ways the engine has: "points"
// materialises every point (a point-major copy of its objectives and a
// Point) and filters them all; "columns" filters the columns, materialises
// only the candidates and filters those.
func BenchmarkPoolFront(b *testing.B) {
	const n = 192_000
	cols := poolColumns(n)
	objs := make([]float64, 2*n)
	pts := make([]Point, n)
	b.Run("points", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range pts {
				o := objs[2*j : 2*j+2 : 2*j+2]
				o[0], o[1] = cols[0][j], cols[1][j]
				pts[j] = Point{ID: int64(j), Objs: o}
			}
			if len(FrontInPlace(pts)) == 0 {
				b.Fatal("empty front")
			}
		}
	})
	var keep []int
	b.Run("columns", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keep = ColumnCandidates(keep[:0], cols, nil)
			cand := pts[:len(keep)]
			for c, j := range keep {
				o := objs[2*c : 2*c+2 : 2*c+2]
				o[0], o[1] = cols[0][j], cols[1][j]
				cand[c] = Point{ID: int64(j), Objs: o}
			}
			if len(FrontInPlace(cand)) == 0 {
				b.Fatal("empty front")
			}
		}
		b.ReportMetric(float64(len(keep)), "candidates")
	})
}
