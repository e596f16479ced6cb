package param

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
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
	// Grows far past its size hint, and agrees with a map on every index.
	rng := rand.New(rand.NewSource(4))
	s := NewIndexSet(1)
	ref := map[int64]bool{}
	for i := 0; i < 20_000; i++ {
		idx := rng.Int63n(30_000)
		if i%7 == 0 {
			idx = int64(i) << 40 // far apart, same low bits
		}
		if got, want := s.Add(idx), !ref[idx]; got != want {
			t.Fatalf("Add(%d) = %v, want %v", idx, got, want)
		}
		ref[idx] = true
	}
	for idx := int64(0); idx < 30_000; idx++ {
		if s.Has(idx) != ref[idx] {
			t.Fatalf("Has(%d) = %v, want %v", idx, s.Has(idx), ref[idx])
		}
	}
	if s.Has(1<<62) || !s.Has(7<<40) {
		t.Fatal("Has disagrees on far indices")
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
