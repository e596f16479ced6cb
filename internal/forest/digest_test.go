package forest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// fitDigest hashes every bit a fit decides: each tree's node arrays
// (feature, threshold bits, children, leaf value bits), then the importance
// vector and the OOB estimate.
func fitDigest(f *Forest) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, t := range f.trees {
		put(uint64(len(t.feature)))
		for i := range t.feature {
			put(uint64(uint32(t.feature[i])))
			put(math.Float64bits(t.thresh[i]))
			put(uint64(uint32(t.left[i])))
			put(uint64(uint32(t.right[i])))
			put(math.Float64bits(t.value[i]))
		}
	}
	for _, v := range f.importance {
		put(math.Float64bits(v))
	}
	put(math.Float64bits(f.oobError))
	put(uint64(f.oobSamples))
	return hex.EncodeToString(h.Sum(nil))
}

// TestFitDigest pins the fitted forests themselves, bit for bit, on the
// shapes the engine fits: the inproc_pool192k grid at the start and the end
// of its active-learning run, the dbms space with mtry 2, a tie-heavy
// 12-feature matrix, a subsampled bag with a leaf-size floor and a depth
// cap, and the re-sorting reference builder. TestFitMatchesLegacyPath
// compares the two builders with each other; this test also sees a change
// to what they share (node statistics, split search, partitioning).
func TestFitDigest(t *testing.T) {
	tieHeavy := func(n, d int, seed int64) ([][]float64, []float64) {
		return makeTieHeavy(rand.New(rand.NewSource(seed)), n, d)
	}
	continuous := func(n, d int, seed int64) ([][]float64, []float64) {
		return makeContinuous(rand.New(rand.NewSource(seed)), n, d)
	}
	grid := func(levels [][]float64) func(n, d int, seed int64) ([][]float64, []float64) {
		return func(n, _ int, seed int64) ([][]float64, []float64) { return gridSamples(levels, n, seed) }
	}
	for _, c := range []struct {
		name string
		data func(n, d int, seed int64) ([][]float64, []float64)
		n, d int
		opts Options
		want string
	}{
		{"grid/n=1000", grid(alGrid()), 1000, 3, Options{Trees: 32, Seed: 1},
			"a8f27d6d03a101828b6453238325c979ed9d7772c7533e7d8b3951bb8216952a"},
		{"grid/n=2800", grid(alGrid()), 2800, 3, Options{Trees: 32, Seed: 1},
			"cfc296e1fae3a8da254bcf483bdeb63f4b72fbfd00ea379393ec7afe4d8268b9"},
		{"dbms/n=260/mtry=2", grid(dbmsGrid()), 260, 7, Options{Trees: 16, MaxFeatures: 2, Seed: 7},
			"6f832740ce3f1b242ab1314ffcaf4aba57506b08d4a348c2e0cfab1bcc07f949"},
		{"tie-heavy/d=12", tieHeavy, 400, 12, Options{Trees: 16, Seed: 3},
			"af29959aec63281b3a454c5e78aeaf878cb2ef9f8ca354647cc3e9ee648ed3a9"},
		{"ratio/minleaf/depth", continuous, 300, 9, Options{Trees: 8, SampleRatio: 0.6, MinSamplesLeaf: 5, MaxDepth: 4, Seed: 4},
			"406ee59f02c7f95db00485352262bfdc918c37e87b34a889c961385a7e129774"},
		{"reference", tieHeavy, 300, 9, Options{Trees: 8, Seed: 5, Reference: true},
			"31a4755021d14d85c84a2086563acfb4a89ca1503da7b6fcb851ea87e25069aa"},
	} {
		x, y := c.data(c.n, c.d, c.opts.Seed)
		f, err := Fit(x, y, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := fitDigest(f); got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, got, c.want)
		}
	}
}
