package forest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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
// cap, and a small tie-heavy fit. The digests were recorded when the package
// still kept a re-sorting builder beside the presorted one, and both gave
// each one; the "reference" row is the shape that builder was once pinned
// on.
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
		{"dbms/n=260/mtry=2", grid(dbmsGrid()), 260, 7, Options{Trees: 16, maxFeatures: 2, Seed: 7},
			"6f832740ce3f1b242ab1314ffcaf4aba57506b08d4a348c2e0cfab1bcc07f949"},
		{"tie-heavy/d=12", tieHeavy, 400, 12, Options{Trees: 16, Seed: 3},
			"af29959aec63281b3a454c5e78aeaf878cb2ef9f8ca354647cc3e9ee648ed3a9"},
		{"ratio/minleaf/depth", continuous, 300, 9, Options{Trees: 8, sampleRatio: 0.6, minSamplesLeaf: 5, maxDepth: 4, Seed: 4},
			"406ee59f02c7f95db00485352262bfdc918c37e87b34a889c961385a7e129774"},
		{"reference", tieHeavy, 300, 9, Options{Trees: 8, Seed: 5},
			"31a4755021d14d85c84a2086563acfb4a89ca1503da7b6fcb851ea87e25069aa"},
	} {
		t.Run(c.name, func(t *testing.T) {
			x, y := c.data(c.n, c.d, c.opts.Seed)
			checkFitDigest(t, x, y, c.opts, c.want)
		})
	}
}

func checkFitDigest(t *testing.T, x [][]float64, y []float64, opts Options, want string) {
	t.Helper()
	f, err := Fit(x, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fitDigest(f); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

// TestFitMatchesLegacyPath pins the presorted builder to the digests of the
// re-sorting builder it replaced, recorded while both were kept and gave
// each one: continuous and tie-heavy matrices from degenerate (n = 1, 2) to
// active-learning sizes under four option variants: defaults, a depth cap,
// a subsampled bag with a leaf-size floor, and mtry = d.
func TestFitMatchesLegacyPath(t *testing.T) {
	variants := []Options{
		{Trees: 16, Seed: 1},
		{Trees: 8, Seed: 2, maxDepth: 3},
		{Trees: 8, Seed: 3, sampleRatio: 0.6, minSamplesLeaf: 4},
		{Trees: 8, Seed: 4, maxFeatures: 9}, // mtry = d: every feature scanned
	}
	want := map[string]string{
		"continuous/n=1/v0":   "89ccca5a7ddf575122b07d931948dc2b50d31db4b2c90287e6e90b3ed40c1157",
		"continuous/n=1/v1":   "73266782260c7e384520b5a306e4163be2e02faf6274d8d7b4f61a30a7fc30e6",
		"continuous/n=1/v2":   "7938d1dec3b2c079cef0d462ec07be39a40502b91466e9e87fd2b3e4b13b1284",
		"continuous/n=1/v3":   "ff735ca29115a2203436476b8155f33bd49fd47abf3dfb44c8205ca23b242038",
		"continuous/n=2/v0":   "511913ece28af307188969cebd586ed4b854586732a05de0f9db765cdcebb5e5",
		"continuous/n=2/v1":   "0f3713a1c30acd32787dccb9596f7c8c3f8739d469279c6362232f7a4c169550",
		"continuous/n=2/v2":   "09f92c711e41acd6164008a7eedd435af2c4f9db4629365d4b665fd83abe91a2",
		"continuous/n=2/v3":   "0fee0c575f6963efeb1f117f8a634796dc543d98e876007d39c1390db0b93039",
		"continuous/n=7/v0":   "91b7c080c6985136108d96b65c23a4d02690f8e2c8fc5413afe0a9f2b61baa5d",
		"continuous/n=7/v1":   "eb2b1a4ffe3e1621a9b809dd0ec8d54983d6b355c560e0a72b7c8e23cbd924d5",
		"continuous/n=7/v2":   "01473fb6efe49b58356db347284dc56df32721a089d9935e39fa836be4f3fee8",
		"continuous/n=7/v3":   "f8576771f3ef051627703ce125b1e0234bd1782e6955aef8edc262a7b1c56c9e",
		"continuous/n=50/v0":  "d0f9bad41a1ecc2ca846292eb4a74e3731ad26e0501aa366dba1c5acb1843e33",
		"continuous/n=50/v1":  "304748a59d1e4d1bd8d0b3b7c0be46add9c0c44c270309974ee729eee8362696",
		"continuous/n=50/v2":  "f7e9850498ec674a67f63b0b40cc078cd04a5ab820c3f4e5b6f1b296bf7aa679",
		"continuous/n=50/v3":  "08826213cdd1ed5e8fddc8ead23887eec3951405f478b83522d10be6be59c77b",
		"continuous/n=300/v0": "baccfede24cb6f144591f9018be126f91c2f6c90f5502620f497adc873a72945",
		"continuous/n=300/v1": "32520a3ae57ec1d6a34623a22dc09849348bb980bf857b898be91385fb9b41d7",
		"continuous/n=300/v2": "1e034f46786ff88831a1b6b181e8a656340a09b9ceda762bb92e83205f76ce36",
		"continuous/n=300/v3": "0d4d2bbd51df930995e487afa917d6525b32ceebbf4de90a00290d0fd9a078e2",
		"tie-heavy/n=1/v0":    "6f698cf84fc218a2cfce2da739fa50dd0cfe1126b1464d7442d45634fc1a4447",
		"tie-heavy/n=1/v1":    "2eda78fb1b5b885e5b905d64feb3d8b74376f65221fed0d442737515beae929e",
		"tie-heavy/n=1/v2":    "8d2899ea3505ffabe5c1122edaab811b9a75ee334208592a8ab5d05455059579",
		"tie-heavy/n=1/v3":    "8a27e28a8910e28d0d2728255c89ed44219fbd3c27a6011821c1ea1cb601952c",
		"tie-heavy/n=2/v0":    "c4f4ae3a5728ae124c30409cf985d6da3596fec42c2c427c868413f2dc43803c",
		"tie-heavy/n=2/v1":    "2ac5c8f78ab240c5513693f624067e6b174cdd0d18660f761406016a81b8793f",
		"tie-heavy/n=2/v2":    "a28acf76ae303779053b531eb812c62d3315bb3ba1ca0f29aa49be655bc83049",
		"tie-heavy/n=2/v3":    "cac4ee548d85cec41abdbedbdced81e855ad591e38421be66c45f46abbdf42da",
		"tie-heavy/n=7/v0":    "ee3705e5cf0635435e3fdce623924d1db8be37c035e4c7942c8bd3974fd0bde2",
		"tie-heavy/n=7/v1":    "2e49835ad0fdee4b94dd10fae645e579975f4241d5bc116186836a162398c4eb",
		"tie-heavy/n=7/v2":    "482cead1887fad1172b34d1c3e17d004073d76d2cb8036187d17a66e419cdcff",
		"tie-heavy/n=7/v3":    "6b2bca7086019a268ff019e775ec2659aa5def50c12d9d46c37ea654a83276fb",
		"tie-heavy/n=50/v0":   "366ad92cb490152c0ca06daf4413e1743aa81752923b5ed2d38039a4b35d0e2a",
		"tie-heavy/n=50/v1":   "dddb8c4ffd33a7dbe2734a684cea44c1b9049ce3fe3c55a9bcea02a60c0cb254",
		"tie-heavy/n=50/v2":   "d0a743d9e419b585672ecc8cc4222f89638e200a50e67b413051c3b18cc835e0",
		"tie-heavy/n=50/v3":   "2b8d7642a51dfff91ae1a280ac9db49bbaa47334fd87bdb21c3ff3133f355fec",
		"tie-heavy/n=300/v0":  "e5b76c5d8c651ab83c2426fa44c068a5a49de54e736a7967da55619cdfffbd33",
		"tie-heavy/n=300/v1":  "aefc7c65d285af5c64d408eddd3ac97431a781270868285d306c1fa1f3209ab8",
		"tie-heavy/n=300/v2":  "0463e609ab9df4c1e4066949600a02472975cc4f7282034bf9ae8f0203add95b",
		"tie-heavy/n=300/v3":  "c5b497cfee7fcfa082f83b6474f16af361308e18cee9f518ce85c9b756aaeb1e",
	}
	for _, ds := range []struct {
		name string
		make func(*rand.Rand, int, int) ([][]float64, []float64)
	}{
		{"continuous", makeContinuous},
		{"tie-heavy", makeTieHeavy},
	} {
		for _, n := range []int{1, 2, 7, 50, 300} {
			for vi, opts := range variants {
				name := fmt.Sprintf("%s/n=%d/v%d", ds.name, n, vi)
				t.Run(name, func(t *testing.T) {
					x, y := ds.make(rand.New(rand.NewSource(int64(n)*100+int64(vi))), n, 9)
					checkFitDigest(t, x, y, opts, want[name])
				})
			}
		}
	}
}
