package slambench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/param"
	"repro/internal/sensor"
)

func testKF(t testing.TB) *KFusionBench {
	t.Helper()
	return NewKFusionBench(CachedDataset("test"))
}

func testEF(t testing.TB) *ElasticFusionBench {
	t.Helper()
	return NewElasticFusionBench(CachedDataset("test"))
}

// The benchmarks score trajectories with traj.ATE and price counted work on a
// device.Model. The ATE mean and max and the modelled seconds and watts feed
// every objective vector, so they are pinned to the bit — for the default
// configuration on every platform — against the values recorded before the
// package's own ATE loop was replaced and before device.Work became an
// array: a change in summation order would move fronts on workloads that
// have no golden digest (kfusion_odroid).
func TestATE(t *testing.T) {
	type modelled struct{ sec, watts uint64 }
	for _, tc := range []struct {
		bench     Benchmark
		mean, max uint64
		platforms [4]modelled // in device.Platforms() order
	}{
		{testKF(t), 0x3f8c38cf5f55b952, 0x3f9a5eba2bba7caa, [4]modelled{
			{0x3fc65b0481266356, 0x3ffa82c7446ed063},
			{0x3fc054a56fa2e781, 0x4002c0302c638da3},
			{0x3fb3be9f73b468e4, 0x404a67d0aaef4286},
			{0x3faf840a3463135d, 0x4041759a4885ff03},
		}},
		{testEF(t), 0x3fa249dceefd0776, 0x3fb15767d8f14f7f, [4]modelled{
			{0x3fc23a18b4ea9e68, 0x3fe6984b0e1ad14c},
			{0x3fbf7255a770e73e, 0x3ff2332d3a174c7d},
			{0x3f95e9f54da404ee, 0x40492b0b35113952},
			{0x3f8ee5c746ed044a, 0x404155941b70486e},
		}},
	} {
		for i, dev := range device.Platforms() {
			m, err := tc.bench.Evaluate(tc.bench.DefaultConfig(), dev)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(m.MeanATE); got != tc.mean {
				t.Errorf("%s mean ATE = %v (%#x), want bits %#x", tc.bench.Name(), m.MeanATE, got, tc.mean)
			}
			if got := math.Float64bits(m.MaxATE); got != tc.max {
				t.Errorf("%s max ATE = %v (%#x), want bits %#x", tc.bench.Name(), m.MaxATE, got, tc.max)
			}
			want := tc.platforms[i]
			if got := math.Float64bits(m.SecPerFrame); got != want.sec {
				t.Errorf("%s on %s: SecPerFrame = %v (%#x), want bits %#x", tc.bench.Name(), dev.Name, m.SecPerFrame, got, want.sec)
			}
			if got := math.Float64bits(m.PowerW); got != want.watts {
				t.Errorf("%s on %s: PowerW = %v (%#x), want bits %#x", tc.bench.Name(), dev.Name, m.PowerW, got, want.watts)
			}
		}
	}
}

// kfusionMix is kfusion_odroid's regime: the "test" scene cut to 60×45 over
// 10 frames, and 48 configurations drawn the way an exploration draws them.
var kfusionMix = sync.OnceValues(func() (*KFusionBench, []param.Config) {
	o := DatasetOptions("test")
	o.Width, o.Height, o.Frames = 60, 45, 10
	b := NewKFusionBench(sensor.Generate(o))
	var cfgs []param.Config
	for _, idx := range b.Space().SampleIndices(rand.New(rand.NewSource(7)), 48) {
		cfgs = append(cfgs, b.Space().AtIndex(idx))
	}
	return b, cfgs
})

// TestKFusionMixDigest pins, to the bit, everything a KFusion measurement
// feeds the search — every pose of the trajectory, every kfusion.Counters
// field and the objective values on the ODROID-XU3 — over kfusionMix. The
// digest was recorded before the evaluator was optimised (zero-initialised
// volume, brick occupancy, table-driven integration, shared preprocessing);
// a kernel change that moves any bit fails here.
func TestKFusionMixDigest(t *testing.T) {
	const want = "bceeb6be022c2493e82e048cbddc17d97fa651767f6f0921c2708d99dfccd2ef"
	b, cfgs := kfusionMix()
	s := b.Space()
	dev := device.ODROIDXU3()
	ratios, vols := map[float64]bool{}, map[float64]bool{}
	idleFrames, trackEvery := 0, 0 // frames that neither track nor integrate; draws tracking every frame
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	for i, cfg := range cfgs {
		ratios[s.Get(cfg, KFRatio)] = true
		vols[s.Get(cfg, KFVolume)] = true
		kc := b.ToConfig(cfg)
		for f := 1; f < b.DS.NumFrames(); f++ {
			if f%kc.TrackingRate != 0 && f%kc.IntegrationRate != 0 {
				idleFrames++
			}
		}
		if kc.TrackingRate == 1 {
			trackEvery++
		}
		res, err := b.run(kc)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		m, err := b.metrics(res, dev)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		put(res.Trajectory)
		put(res.Counters)
		put([3]float64{m.SecPerFrame, m.MaxATE, m.PowerW})
	}
	// Every compute ratio (so splat 0, 1 and 2 all run) and every volume
	// resolution must be in the draw, or the digest guards less than it says.
	if len(ratios) != 4 || len(vols) != 3 {
		t.Fatalf("draw covers ratios %v and resolutions %v, want all 4 and all 3", ratios, vols)
	}
	// A frame that neither tracks nor integrates keeps the previous raycast,
	// and a draw tracking every frame builds model maps at every frame.
	if idleFrames == 0 || trackEvery == 0 {
		t.Fatalf("draw has %d frames without tracking or integration and %d configurations with tracking rate 1, want both > 0", idleFrames, trackEvery)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("mix digest = %s, want %s", got, want)
	}
}

// TestKFusionMixOrderIndependent: a measurement does not depend on which
// measurements ran before it. kfusionMix's draws, evaluated in reverse order
// on a fresh benchmark, equal the same draws evaluated in forward order.
func TestKFusionMixOrderIndependent(t *testing.T) {
	fwd, cfgs := kfusionMix()
	dev := device.ODROIDXU3()
	want := make([]Metrics, len(cfgs))
	for i, cfg := range cfgs {
		m, err := fwd.Evaluate(cfg, dev)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		want[i] = m
	}
	rev := NewKFusionBench(fwd.DS)
	for i := len(cfgs) - 1; i >= 0; i-- {
		got, err := rev.Evaluate(cfgs[i], dev)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("draw %d: reverse order %+v, forward order %+v", i, got, want[i])
		}
	}
}

// TestKFusionEvaluateConcurrent: twelve measurements running at once on a
// fresh benchmark, four at each volume resolution, share its per-ratio
// preprocessing and equal the same measurements run one at a time.
func TestKFusionEvaluateConcurrent(t *testing.T) {
	seq, mix := kfusionMix()
	perVol := map[float64]int{}
	var cfgs []param.Config
	for _, cfg := range mix {
		if v := seq.Space().Get(cfg, KFVolume); perVol[v] < 4 {
			perVol[v]++
			cfgs = append(cfgs, cfg)
		}
	}
	if len(cfgs) != 12 {
		t.Fatalf("draw has %v configurations per volume resolution, want 4 of each", perVol)
	}
	conc := NewKFusionBench(seq.DS)
	dev := device.ODROIDXU3()
	got := make([]Metrics, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = conc.Evaluate(cfg, dev)
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		want, err := seq.Evaluate(cfg, dev)
		if err != nil || errs[i] != nil {
			t.Fatalf("draw %d: %v / %v", i, err, errs[i])
		}
		if got[i] != want {
			t.Fatalf("draw %d: concurrent %+v, sequential %+v", i, got[i], want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names {
		b, err := ByName(name, "test")
		if err != nil || b.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, b, err)
		}
	}
	if _, err := ByName("orbslam", "test"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// An unknown scale must not read as the full dataset.
	if _, err := ByName("kfusion", "tset"); err == nil || !strings.Contains(err.Error(), "full|dse|test") {
		t.Fatalf("unknown dataset scale: err = %v, want one naming full|dse|test", err)
	}
}

func TestSpaceCardinalities(t *testing.T) {
	if got := KFusionSpace().Size(); got != 1_800_000 {
		t.Fatalf("KFusion space = %d, want 1800000 (paper §III-B)", got)
	}
	if got := ElasticFusionSpace().Size(); got != 442_368 {
		t.Fatalf("ElasticFusion space = %d, want 442368 (paper ≈450k, §III-C)", got)
	}
}

func TestKFusionDefaultConfigDecodes(t *testing.T) {
	b := testKF(t)
	cfg := b.DefaultConfig()
	kc := b.ToConfig(cfg)
	if kc.VolumeResolution != 256 || kc.Mu != 0.1 || kc.ComputeRatio != 1 ||
		kc.TrackingRate != 1 || kc.IntegrationRate != 2 ||
		kc.ICPThreshold != 1e-5 || kc.PyramidIters != [3]int{10, 5, 4} {
		t.Fatalf("default decoded to %+v", kc)
	}
}

func TestEFDefaultConfigDecodes(t *testing.T) {
	b := testEF(t)
	ec := b.ToConfig(b.DefaultConfig())
	if ec.ICPWeight != 10 || ec.DepthCutoff != 3 || ec.Confidence != 10 {
		t.Fatalf("default decoded to %+v", ec)
	}
	if !ec.SO3 || ec.OpenLoop || !ec.Reloc || ec.FastOdom || ec.FrameToFrameRGB {
		t.Fatalf("default flags decoded to %+v", ec)
	}
}

func TestTableIRowsLieInSpace(t *testing.T) {
	// The winning configurations of Table I (ICP 5/4/2/1, depth 6/10,
	// confidence 9/4) must be expressible in our space grid.
	s := ElasticFusionSpace()
	for _, row := range [][3]float64{{5, 6, 9}, {4, 6, 9}, {2, 10, 4}, {1, 10, 4}} {
		cfg := s.AtIndex(0)
		cfg = s.With(cfg, EFICPWeight, row[0])
		cfg = s.With(cfg, EFDepthCut, row[1])
		cfg = s.With(cfg, EFConfidence, row[2])
		if s.Get(cfg, EFICPWeight) != row[0] || s.Get(cfg, EFDepthCut) != row[1] ||
			s.Get(cfg, EFConfidence) != row[2] {
			t.Fatalf("Table I row %v not on the space grid", row)
		}
	}
}

func TestKFusionEvaluate(t *testing.T) {
	b := testKF(t)
	m, err := b.Evaluate(b.DefaultConfig(), device.ODROIDXU3())
	if err != nil {
		t.Fatal(err)
	}
	if m.SecPerFrame <= 0 || m.FPS <= 0 || m.MaxATE < 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.MaxATE < m.MeanATE {
		t.Fatal("max ATE below mean ATE")
	}
	if m.TotalSeconds != m.SecPerFrame*NominalFrames {
		t.Fatal("total runtime inconsistent")
	}
	if b.Accuracy(m) != m.MaxATE {
		t.Fatal("KFusion accuracy objective must be max ATE")
	}
	if m.PowerW <= 0 {
		t.Fatal("power not modeled")
	}
}

func TestEFEvaluate(t *testing.T) {
	b := testEF(t)
	m, err := b.Evaluate(b.DefaultConfig(), device.GTX780Ti())
	if err != nil {
		t.Fatal(err)
	}
	if m.SecPerFrame <= 0 || m.MeanATE <= 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if b.Accuracy(m) != m.MeanATE {
		t.Fatal("EF accuracy objective must be mean ATE")
	}
}

func TestCheaperConfigIsFaster(t *testing.T) {
	b := testKF(t)
	s := b.Space()
	dev := device.ODROIDXU3()
	def := b.DefaultConfig()
	cheap := s.With(def, KFVolume, 64)
	cheap = s.With(cheap, KFRatio, 2)
	cheap = s.With(cheap, KFIntegRate, 5)

	md, err := b.Evaluate(def, dev)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := b.Evaluate(cheap, dev)
	if err != nil {
		t.Fatal(err)
	}
	if mc.SecPerFrame >= md.SecPerFrame/3 {
		t.Fatalf("cheap config %.1fms not ≪ default %.1fms",
			mc.SecPerFrame*1e3, md.SecPerFrame*1e3)
	}
}

func TestCalibrationKFusionODROID(t *testing.T) {
	// §IV-B: the default KFusion configuration runs at ≈ 6 FPS on the
	// ODROID-XU3. The "test" dataset is smaller but work is rescaled to
	// paper pixels, so the modeled FPS must stay in the band.
	if testing.Short() {
		t.Skip("full dataset evaluation in -short mode")
	}
	b := NewKFusionBench(CachedDataset("full"))
	m, err := b.Evaluate(b.DefaultConfig(), device.ODROIDXU3())
	if err != nil {
		t.Fatal(err)
	}
	if m.FPS < 4.5 || m.FPS > 7.5 {
		t.Fatalf("default KFusion on ODROID = %.2f FPS, want ≈6 (paper §IV-B)", m.FPS)
	}
}

func TestCalibrationEFGTX(t *testing.T) {
	// Table I: default ElasticFusion ≈ 22.2 s total, error ≈ 0.0558 m.
	if testing.Short() {
		t.Skip("full dataset evaluation in -short mode")
	}
	b := NewElasticFusionBench(CachedDataset("full"))
	m, err := b.Evaluate(b.DefaultConfig(), device.GTX780Ti())
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalSeconds < 18 || m.TotalSeconds > 27 {
		t.Fatalf("default EF total = %.1f s, want ≈22.2 (Table I)", m.TotalSeconds)
	}
	if m.MeanATE < 0.02 || m.MeanATE > 0.10 {
		t.Fatalf("default EF error = %.4f m, want ≈0.0558 band (Table I)", m.MeanATE)
	}
}

func TestEvaluatorAdapterObjectives(t *testing.T) {
	b := testKF(t)
	dev := device.ODROIDXU3()
	ev2 := Evaluator(b, dev, RuntimeAccuracy)
	objs := ev2.Evaluate(b.DefaultConfig())
	if len(objs) != 2 {
		t.Fatalf("2-objective evaluator returned %d values", len(objs))
	}
	ev3 := Evaluator(b, dev, RuntimeAccuracyPower)
	objs = ev3.Evaluate(b.DefaultConfig())
	if len(objs) != 3 {
		t.Fatalf("3-objective evaluator returned %d values", len(objs))
	}
	if RuntimeAccuracy.Count() != 2 || RuntimeAccuracyPower.Count() != 3 {
		t.Fatal("Objectives.Count wrong")
	}
}

func TestEvaluatorPenalizesBrokenConfigs(t *testing.T) {
	// Ratio 8 on a 24×18 dataset leaves a 3×2 image — Run errors, and the
	// evaluator must return a penalty vector, not crash.
	tiny := sensor.Generate(sensor.Options{
		Width: 24, Height: 18, Frames: 3,
		Noise:      sensor.KinectNoise(1),
		Trajectory: sensor.TrajectorySlice(sensor.LivingRoomTrajectory2, 100),
	})
	b := NewKFusionBench(tiny)
	ev := Evaluator(b, device.ODROIDXU3(), RuntimeAccuracy)
	bad := b.Space().With(b.DefaultConfig(), KFRatio, 8)
	objs := ev.Evaluate(bad)
	if objs[0] < 5 || objs[1] < 5 {
		t.Fatalf("broken config not penalized: %v", objs)
	}
}

func TestCachedDatasetSharing(t *testing.T) {
	a := CachedDataset("test")
	b := CachedDataset("test")
	if a != b {
		t.Fatal("cache returned different instances")
	}
	if a.Intrinsics.W != 80 {
		t.Fatalf("test dataset width %d", a.Intrinsics.W)
	}
}

func TestSmallDSEOnKFusion(t *testing.T) {
	// End-to-end smoke test: a tiny HyperMapper run over the real KFusion
	// space must produce a non-empty front of valid samples.
	if testing.Short() {
		t.Skip("DSE smoke test in -short mode")
	}
	b := testKF(t)
	res, err := core.Run(b.Space(), Evaluator(b, device.ODROIDXU3(), RuntimeAccuracy), core.Options{
		Objectives:    2,
		RandomSamples: 12,
		MaxIterations: 1,
		MaxBatch:      6,
		PoolCap:       3000,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, p := range res.Front {
		cfg := b.Space().AtIndex(p.ID)
		if err := b.Space().Validate(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

var sinkMetrics Metrics

// BenchmarkKFusionEvaluate times one measurement of the default
// configuration at volume 128 on the test dataset ("default"), and one pass
// over kfusionMix's 48 draws ("mix"; ms/measurement is its mean).
func BenchmarkKFusionEvaluate(b *testing.B) {
	dev := device.ODROIDXU3()
	b.Run("default", func(b *testing.B) {
		bench := testKF(b)
		cfg := bench.Space().With(bench.DefaultConfig(), KFVolume, 128)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := bench.Evaluate(cfg, dev)
			if err != nil {
				b.Fatal(err)
			}
			sinkMetrics = m
		}
	})
	b.Run("mix", func(b *testing.B) {
		bench, cfgs := kfusionMix()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				m, err := bench.Evaluate(cfg, dev)
				if err != nil {
					b.Fatal(err)
				}
				sinkMetrics = m
			}
		}
		b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N*len(cfgs)), "ms/measurement")
	})
}

func BenchmarkEFEvaluate(b *testing.B) {
	bench := testEF(b)
	dev := device.GTX780Ti()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := bench.Evaluate(bench.DefaultConfig(), dev)
		if err != nil {
			b.Fatal(err)
		}
		sinkMetrics = m
	}
}
