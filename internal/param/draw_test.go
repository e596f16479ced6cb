package param

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// drawDigest hashes a draw and the next value of its rng: the indices in
// order, and how much randomness the draw consumed.
func drawDigest(idx []int64, rng *rand.Rand) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range idx {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(rng.Int63()))
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// kfusionSpace has the level structure of the KFusion space (1.8 M points).
func kfusionSpace() *Space {
	return MustSpace(
		Levels("volume", 64, 128, 256),
		Grid("mu", 0.025, 0.5, 8),
		Levels("ratio", 1, 2, 4, 8),
		Levels("tr", 1, 2, 3, 4, 5),
		Levels("ir", 1, 2, 3, 4, 5),
		LogGrid("icp", 1e-6, 1e-1, 6),
		Levels("p0", 2, 4, 6, 8, 10),
		Levels("p1", 2, 4, 6, 8, 10),
		Levels("p2", 2, 4, 6, 8, 10),
	)
}

// dbmsSpace is the dbms_knobs spec's space built by hand: 75 600 points,
// about half of them feasible under its two constraints.
func dbmsSpace() *Space {
	s := MustSpace(
		LogGrid("buffer-pool-mb", 64, 16384, 9),
		LogGrid("wal-buffer-mb", 16, 1024, 7),
		Levels("max-connections", 50, 100, 200, 400, 800),
		Grid("checkpoint-interval-s", 30, 300, 10),
		Bool("compression"),
		Bool("async-commit"),
		Levels("worker-threads", 1, 2, 4, 8, 16, 32),
	)
	s.SetConstraint(func(c Config) bool { return c[1] <= c[0] && (c[5] != 1 || c[3] <= 150) })
	return s
}

// TestSeededDrawsUnchanged pins every sampler's seeded output and rng
// consumption: a seeded run's pools and bootstrap are these draws, so a
// change to how the samplers track what they drew must not move one bit.
// Each case names the branch it reaches.
func TestSeededDrawsUnchanged(t *testing.T) {
	primes := func() *Space {
		s := MustSpace(Grid("a", 0, 99, 100), Grid("b", 0, 99, 100), Grid("c", 0, 9, 10))
		s.SetConstraint(func(c Config) bool { return (int(c[0])+int(c[1])+int(c[2]))%3 == 0 })
		return s
	}
	tight := func() *Space {
		s := MustSpace(Grid("a", 0, 99, 100), Grid("b", 0, 99, 100))
		s.SetConstraint(func(c Config) bool { return int(c[0])%25 == 0 && int(c[1])%10 == 3 })
		return s
	}
	weighted := func() *Space {
		a := Grid("a", 0, 99, 100)
		a.Priors = make([]float64, 100)
		for i := range a.Priors {
			a.Priors[i] = float64(i%7) + 0.5
		}
		b := Levels("b", 0, 1, 2, 3, 4, 5, 6, 7)
		b.Priors = []float64{8, 1, 1, 0, 2, 1, 1, 4}
		return MustSpace(a, b, Grid("c", 0, 49, 50))
	}
	weightedTight := func() *Space {
		s := weighted()
		s.SetConstraint(func(c Config) bool { return int(c[0])%20 == 1 && int(c[2]) < 3 })
		return s
	}
	cases := []struct {
		name string
		draw func(rng *rand.Rand) []int64
		want string
	}{
		{"uniform/kfusion-60000", func(r *rand.Rand) []int64 { return kfusionSpace().SampleIndices(r, 60_000) }, "df2995fe14fd2600"},
		{"uniform/dense-rejections", func(r *rand.Rand) []int64 {
			return MustSpace(Grid("a", 0, 9, 10), Grid("b", 0, 9, 10), Grid("c", 0, 9, 10)).SampleIndices(r, 990)
		}, "f4017380ac0b07eb"},
		{"uniform/whole-space", func(r *rand.Rand) []int64 { return MustSpace(Grid("a", 0, 9, 10)).SampleIndices(r, 10) }, "6a1950788e4b45c1"},
		{"constrained/rejection", func(r *rand.Rand) []int64 { return primes().SampleIndices(r, 5000) }, "701d9935ae40acf3"},
		{"constrained/dbms-5000", func(r *rand.Rand) []int64 { return dbmsSpace().SampleIndices(r, 5000) }, "fe19b57cd016f6bd"},
		{"constrained/dense-fallback", func(r *rand.Rand) []int64 { return tight().SampleIndices(r, 30) }, "2f951b1d236265ad"},
		{"constrained/fallback-short", func(r *rand.Rand) []int64 { return tight().SampleIndices(r, 50) }, "4e965e540c86030d"},
		{"constrained/whole-space", func(r *rand.Rand) []int64 { return tight().SampleIndices(r, 20_000) }, "2af411fac2423182"},
		{"weighted/rejection", func(r *rand.Rand) []int64 { return weighted().SampleIndicesWeighted(r, 8000) }, "49e8af57136a513d"},
		{"weighted/dense-fallback", func(r *rand.Rand) []int64 { return weightedTight().SampleIndicesWeighted(r, 12) }, "476032e59b1d6dae"},
		{"weighted/fallback-short", func(r *rand.Rand) []int64 { return weightedTight().SampleIndicesWeighted(r, 200) }, "a8deb6a530baaddb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			idx := tc.draw(rng)
			if got := drawDigest(idx, rng); got != tc.want {
				t.Errorf("%d indices, digest %s, want %s", len(idx), got, tc.want)
			}
		})
	}
}

func TestIndexSet(t *testing.T) {
	// Both forms agree with a map on every Add, re-adds included, on every
	// Has and on the count. The table grows far past its size hint, and
	// takes indices far apart with the same low bits.
	for _, tc := range []struct {
		name  string
		n     int
		bound int64
		dense bool
	}{
		{"bitmap", 1000, 30_000, true},
		{"table", 1, 1 << 62, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			s := NewIndexSet(tc.n, tc.bound)
			if got := s.bits != nil; got != tc.dense {
				t.Fatalf("bitmap = %v, want %v", got, tc.dense)
			}
			ref := map[int64]bool{}
			for i := 0; i < 20_000; i++ {
				idx := rng.Int63n(30_000)
				if !tc.dense && i%7 == 0 {
					idx = int64(i) << 40
				}
				if got, want := s.Add(idx), !ref[idx]; got != want {
					t.Fatalf("Add(%d) = %v, want %v", idx, got, want)
				}
				ref[idx] = true
			}
			if s.n != len(ref) {
				t.Fatalf("count %d, want %d", s.n, len(ref))
			}
			for idx := int64(0); idx < 30_000; idx++ {
				if s.Has(idx) != ref[idx] {
					t.Fatalf("Has(%d) = %v, want %v", idx, s.Has(idx), ref[idx])
				}
			}
			if !tc.dense && (s.Has(1<<61) || !s.Has(7<<40)) {
				t.Fatal("Has disagrees on far indices")
			}
		})
	}
	// The form follows the bound: a bitmap exactly while its words are no
	// more than the table's slots (5 000 of dbms's 75 600 and 60 000 of
	// KFusion's 1.8 M are bitmaps).
	for _, tc := range []struct {
		n     int
		bound int64
		dense bool
	}{
		{5000, 75_600, true},
		{60_000, 1_800_000, true},
		{5000, 16384 * 64, true},
		{5000, 16384*64 + 1, false},
		{1, 256 * 64, false},
		{0, 8 * 64, true},
	} {
		if got := NewIndexSet(tc.n, tc.bound).bits != nil; got != tc.dense {
			t.Errorf("NewIndexSet(%d, %d): bitmap = %v, want %v", tc.n, tc.bound, got, tc.dense)
		}
	}
}

// TestConcurrentDrawsFromOneSpace has goroutines draw from one constrained
// space at once, as concurrent runs on one problem do: each draw must equal
// the same seed's draw on a fresh space.
func TestConcurrentDrawsFromOneSpace(t *testing.T) {
	shared := dbmsSpace()
	const goroutines, rounds = 4, 6
	got := make([][][]int64, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got[g] = append(got[g], shared.SampleIndices(rand.New(rand.NewSource(int64(g*rounds+r))), 5000))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for r, draw := range got[g] {
			want := dbmsSpace().SampleIndices(rand.New(rand.NewSource(int64(g*rounds+r))), 5000)
			if !slices.Equal(draw, want) {
				t.Fatalf("goroutine %d round %d: the shared space drew another pool", g, r)
			}
		}
	}
}

// BenchmarkSampleIndicesKFusion is kfusion_odroid's pool draw: 60 000
// distinct indices of the 1.8 M-point KFusion space.
func BenchmarkSampleIndicesKFusion(b *testing.B) {
	s := kfusionSpace()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.SampleIndices(rng, 60_000)
	}
}

// BenchmarkSampleIndicesDBMS is durable_fleet3_tenants' pool draw: 5 000
// distinct feasible indices of the 75 600-point constrained dbms_knobs
// space, drawn again and again from one Space, as runs on one problem do.
func BenchmarkSampleIndicesDBMS(b *testing.B) {
	s := dbmsSpace()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.SampleIndices(rng, 5000)
	}
}
