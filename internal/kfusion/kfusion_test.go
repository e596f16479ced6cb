package kfusion

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/sensor"
)

// testDataset is rendered once for the package tests: small but large
// enough for ICP to track.
var testDataset = sensor.Generate(sensor.Options{
	Width: 80, Height: 60, Frames: 25,
	Noise:      sensor.KinectNoise(1),
	Trajectory: sensor.TrajectorySlice(sensor.LivingRoomTrajectory2, 100),
})

// testConfig is a cheap configuration for pipeline tests.
func testConfig() Config {
	return Config{
		VolumeResolution: 128,
		Mu:               0.12,
		ComputeRatio:     1,
		TrackingRate:     1,
		IntegrationRate:  1,
		ICPThreshold:     1e-5,
		PyramidIters:     [3]int{6, 4, 3},
	}
}

// run prepares ds at cfg's compute ratio and runs cfg on it.
func run(ds *sensor.Dataset, cfg Config) (*Result, error) {
	p, err := Prepare(ds, cfg.ComputeRatio)
	if err != nil {
		return nil, err
	}
	return Run(p, cfg)
}

func maxATE(traj, gt []geom.Pose) float64 {
	worst := 0.0
	for i := range traj {
		if d := geom.Distance(traj[i], gt[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{VolumeResolution: 4, Mu: 0.1, ComputeRatio: 1, TrackingRate: 1, IntegrationRate: 1},
		{VolumeResolution: 64, Mu: 0, ComputeRatio: 1, TrackingRate: 1, IntegrationRate: 1},
		{VolumeResolution: 64, Mu: 0.1, ComputeRatio: 0, TrackingRate: 1, IntegrationRate: 1},
		{VolumeResolution: 64, Mu: 0.1, ComputeRatio: 1, TrackingRate: 0, IntegrationRate: 1},
		{VolumeResolution: 64, Mu: 0.1, ComputeRatio: 1, TrackingRate: 1, IntegrationRate: 0},
		{VolumeResolution: 64, Mu: 0.1, ComputeRatio: 1, TrackingRate: 1, IntegrationRate: 1, ICPThreshold: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
}

func TestVolumeBasics(t *testing.T) {
	v := NewVolume(16, 1.6, geom.V3(0, 0, 0))
	if math.Abs(v.VoxelSize()-0.1) > 1e-12 {
		t.Fatalf("voxel size = %v", v.VoxelSize())
	}
	tv, w := v.At(0, 0, 0)
	if tv != 1 || w != 0 {
		t.Fatalf("initial voxel = (%v, %v)", tv, w)
	}
	if tv, w = v.At(-1, 0, 0); tv != 1 || w != 0 {
		t.Fatal("out-of-grid must read as far/unobserved")
	}
	v.setBlend(2, 3, 4, -0.5)
	tv, w = v.At(2, 3, 4)
	if tv != -0.5 || w != 1 {
		t.Fatalf("after blend: (%v, %v)", tv, w)
	}
	v.setBlend(2, 3, 4, 0.5)
	tv, _ = v.At(2, 3, 4)
	if math.Abs(float64(tv)) > 1e-6 {
		t.Fatalf("weighted mean = %v, want 0", tv)
	}
}

func TestVolumeWeightCap(t *testing.T) {
	v := NewVolume(8, 1, geom.Vec3{})
	for i := 0; i < 3*maxWeight; i++ {
		v.setBlend(1, 1, 1, 0)
	}
	if _, w := v.At(1, 1, 1); w != maxWeight {
		t.Fatalf("weight = %v, want cap %d", w, maxWeight)
	}
}

// TestVolumeResetMatchesNew: a volume integrated at every compute ratio (so
// every splat width runs) and at several resolutions reads, after reset,
// exactly as a volume NewVolume just allocated — every TSDF value, weight and
// occupancy flag — so a measurement on a reused volume starts where a fresh
// one would.
func TestVolumeResetMatchesNew(t *testing.T) {
	center := geom.V3(0, 1.3, 0)
	for _, ratio := range []int{1, 2, 4, 8} {
		p, err := Prepare(testDataset, ratio)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []int{16, 32, 64} {
			vol := NewVolume(res, volumeSize, center)
			var updates int64
			for i := 0; i < len(p.frames); i += 4 {
				updates += vol.Integrate(p.frames[i].depth, p.intr, testDataset.GroundTruth[i], 0.12)
			}
			if updates == 0 || !slices.Contains(vol.occupied, true) {
				t.Fatalf("ratio %d, res %d: integration observed nothing", ratio, res)
			}
			vol.reset()
			fresh := NewVolume(res, volumeSize, center)
			if i := slices.IndexFunc(vol.tsdf, func(x float32) bool { return math.Float32bits(x) != 0 }); i >= 0 {
				t.Fatalf("ratio %d, res %d: tsdf[%d] = %v after reset", ratio, res, i, vol.tsdf[i])
			}
			if !slices.Equal(vol.weight, fresh.weight) || !slices.Equal(vol.occupied, fresh.occupied) {
				t.Fatalf("ratio %d, res %d: weights or occupancy differ from NewVolume after reset", ratio, res)
			}
			if !reflect.DeepEqual(vol, fresh) {
				t.Fatalf("ratio %d, res %d: volume differs from NewVolume after reset", ratio, res)
			}
		}
	}
}

// TestVolumeFreeList: volumes in use at once are distinct and come back
// reset, and the free list holds no more volumes of a resolution than were
// in use at the same time.
func TestVolumeFreeList(t *testing.T) {
	const workers, rounds, res = 8, 200, 17 // a resolution Run never uses
	var inUse sync.Map
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				v := takeVolume(res)
				if _, dup := inUse.LoadOrStore(v, true); dup {
					t.Error("one volume handed out twice at once")
					return
				}
				if _, w := v.At(1, 2, 3); w != 0 {
					t.Error("volume taken from the free list was not reset")
					return
				}
				v.setBlend(1, 2, 3, 0.5)
				inUse.Delete(v)
				giveVolume(v)
			}
		}()
	}
	wg.Wait()
	volumesMu.Lock()
	n := len(volumes[res])
	volumesMu.Unlock()
	if n < 1 || n > workers {
		t.Fatalf("free list holds %d volumes after %d workers", n, workers)
	}
}

func TestIntegrateRaycastRecoversPlane(t *testing.T) {
	// Synthetic fronto-parallel plane at z = 1.5 m from the camera: after
	// integration, raycast must recover it within ~a voxel.
	intr := imgproc.StandardIntrinsics(40, 30)
	depth := imgproc.NewMap(40, 30)
	for i := range depth.Pix {
		depth.Pix[i] = 1.5
	}
	pose := geom.IdentityPose() // camera at origin looking down +z
	vol := NewVolume(64, 3.2, geom.V3(0, 0, 1.6))
	updates := vol.Integrate(depth, intr, pose, 0.1)
	if updates == 0 {
		t.Fatal("integration did nothing")
	}
	model := vol.Raycast(intr, pose, 0.1, 0.3, 3.0)
	if model.Steps == 0 {
		t.Fatal("raycast did nothing")
	}
	vtx, nrm := model.Maps()
	hits := 0
	for y := 8; y < 22; y++ {
		for x := 10; x < 30; x++ {
			if !vtx.ValidAt(x, y) {
				continue
			}
			hits++
			p := vtx.At(x, y)
			if math.Abs(p.Z-1.5) > 0.08 {
				t.Fatalf("recovered depth %v at (%d,%d), want 1.5±0.08", p.Z, x, y)
			}
			n := nrm.At(x, y)
			if math.Abs(math.Abs(n.Z)-1) > 0.2 {
				t.Fatalf("plane normal = %v", n)
			}
		}
	}
	if hits < 100 {
		t.Fatalf("only %d raycast hits in the central window", hits)
	}
}

func TestInterpUnobservedInvalid(t *testing.T) {
	vol := NewVolume(16, 1.6, geom.Vec3{})
	if _, ok := vol.Interp(geom.V3(0.1, 0.1, 0.1)); ok {
		t.Fatal("interp in unobserved space must be invalid")
	}
}

func TestRunEndToEndTracksWell(t *testing.T) {
	res, err := run(testDataset, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != testDataset.NumFrames() {
		t.Fatalf("trajectory length %d", len(res.Trajectory))
	}
	ate := maxATE(res.Trajectory, testDataset.GroundTruth)
	if ate > 0.06 {
		t.Fatalf("max ATE %v m too large — tracking broken", ate)
	}
	c := res.Counters
	if c.Frames != 25 || c.TrackedFrames == 0 || c.IntegratedFrames == 0 {
		t.Fatalf("counters: %+v", c)
	}
	if c.BilateralOps == 0 || c.TrackOps == 0 || c.RaycastSteps == 0 || c.IntegrateActual == 0 {
		t.Fatalf("work not counted: %+v", c)
	}
}

func TestFullSweepBilling(t *testing.T) {
	cfg := testConfig()
	cfg.IntegrationRate = 2
	res, err := run(testDataset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Counters.IntegratedFrames * int64(cfg.VolumeResolution) * int64(cfg.VolumeResolution) * int64(cfg.VolumeResolution)
	if res.Counters.IntegrateFullSweep != want {
		t.Fatalf("full sweep billed %d, want %d", res.Counters.IntegrateFullSweep, want)
	}
	// Integration rate 2 on 25 frames: frames 0,2,4,…,24 = 13.
	if res.Counters.IntegratedFrames != 13 {
		t.Fatalf("integrated %d frames, want 13", res.Counters.IntegratedFrames)
	}
}

func TestTrackingRateSkipsTracking(t *testing.T) {
	cfg := testConfig()
	cfg.TrackingRate = 5
	res, err := run(testDataset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Frames 5,10,15,20 tracked (frame 0 never tracks): ≤ 4 + failures.
	if res.Counters.TrackedFrames+res.Counters.TrackingFailures != 4 {
		t.Fatalf("tracked+failed = %d, want 4",
			res.Counters.TrackedFrames+res.Counters.TrackingFailures)
	}
}

func TestLargerICPThresholdIsFasterAndWorse(t *testing.T) {
	precise := testConfig()
	precise.ICPThreshold = 1e-7
	sloppy := testConfig()
	sloppy.ICPThreshold = 1e-1 // stops after the first iteration per level

	rp, err := run(testDataset, precise)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := run(testDataset, sloppy)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Counters.TrackOps >= rp.Counters.TrackOps {
		t.Fatalf("sloppy threshold should do less ICP work: %d vs %d",
			rs.Counters.TrackOps, rp.Counters.TrackOps)
	}
	atePrecise := maxATE(rp.Trajectory, testDataset.GroundTruth)
	ateSloppy := maxATE(rs.Trajectory, testDataset.GroundTruth)
	if ateSloppy < atePrecise/2 {
		t.Fatalf("sloppy tracking unexpectedly much better: %v vs %v", ateSloppy, atePrecise)
	}
}

func TestComputeRatioReducesWork(t *testing.T) {
	full := testConfig()
	quarter := testConfig()
	quarter.ComputeRatio = 2

	rf, err := run(testDataset, full)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := run(testDataset, quarter)
	if err != nil {
		t.Fatal(err)
	}
	if rq.Counters.BilateralOps >= rf.Counters.BilateralOps/2 {
		t.Fatalf("ratio 2 should quarter bilateral work: %d vs %d",
			rq.Counters.BilateralOps, rf.Counters.BilateralOps)
	}
	if rq.Counters.TrackOps >= rf.Counters.TrackOps {
		t.Fatal("ratio 2 should reduce tracking work")
	}
}

func TestMuAffectsIntegrationWork(t *testing.T) {
	narrow := testConfig()
	narrow.Mu = 0.05
	wide := testConfig()
	wide.Mu = 0.4

	rn, err := run(testDataset, narrow)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := run(testDataset, wide)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Counters.IntegrateActual <= rn.Counters.IntegrateActual {
		t.Fatalf("wider mu must touch more voxels: %d vs %d",
			rw.Counters.IntegrateActual, rn.Counters.IntegrateActual)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := run(nil, testConfig()); err == nil {
		t.Fatal("nil dataset accepted")
	}
	bad := testConfig()
	bad.Mu = -1
	if _, err := run(testDataset, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	tooSmall := testConfig()
	tooSmall.ComputeRatio = 64
	if _, err := run(testDataset, tooSmall); err == nil {
		t.Fatal("degenerate compute ratio accepted")
	}
	p, err := Prepare(testDataset, 1)
	if err != nil {
		t.Fatal(err)
	}
	other := testConfig()
	other.ComputeRatio = 2
	if _, err := Run(p, other); err == nil {
		t.Fatal("input prepared at another compute ratio accepted")
	}
}

func TestVolumeScaleReducesMemoryNotBilling(t *testing.T) {
	cfg := testConfig()
	res, err := run(testDataset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	cube := func(n int) int64 { return int64(n) * int64(n) * int64(n) }
	if want := cube(cfg.VolumeResolution) * c.IntegratedFrames; c.IntegrateFullSweep != want {
		t.Fatalf("billed %d voxel updates, want %d: billing must follow the declared resolution", c.IntegrateFullSweep, want)
	}
	if max := cube(cfg.VolumeResolution/volumeScale) * c.IntegratedFrames; c.IntegrateActual > max {
		t.Fatalf("simulated %d voxel updates, more than the scaled volume holds (%d)", c.IntegrateActual, max)
	}
}

func TestDeterministicRun(t *testing.T) {
	a, err := run(testDataset, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(testDataset, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Trajectory {
		if a.Trajectory[i].T != b.Trajectory[i].T {
			t.Fatal("run not deterministic")
		}
	}
	if a.Counters != b.Counters {
		t.Fatal("counters not deterministic")
	}
}

// runEager is Run without reuse: every frame raycasts and builds the model
// maps at once, and tracking reads the previous frame's maps.
func runEager(p *Prepared, cfg Config) *Result {
	vol := NewVolume(max(cfg.VolumeResolution/volumeScale, 16), volumeSize, geom.V3(0, 1.3, 0))
	res := &Result{Trajectory: make([]geom.Pose, len(p.frames))}
	c := &res.Counters
	c.ResizeOps, c.BilateralOps, c.PyramidOps = p.resizeOps, p.bilateralOps, p.pyramidOps
	pose := p.ds.GroundTruth[0]
	var modelVertex, modelNormal *imgproc.VecMap
	var modelPose geom.Pose
	fullSweep := int64(cfg.VolumeResolution) * int64(cfg.VolumeResolution) * int64(cfg.VolumeResolution)
	for i := range p.frames {
		f := &p.frames[i]
		c.Frames++
		if i > 0 && modelVertex != nil && i%cfg.TrackingRate == 0 {
			newPose, tops, err := trackICP(&f.levels, modelVertex, modelNormal, p.intr, modelPose, pose, cfg.PyramidIters, cfg.ICPThreshold)
			c.TrackOps += tops
			if err != nil {
				c.TrackingFailures++
			} else {
				pose = newPose
				c.TrackedFrames++
			}
		}
		res.Trajectory[i] = pose
		if i == 0 || i%cfg.IntegrationRate == 0 {
			c.IntegrateActual += vol.Integrate(f.depth, p.intr, pose, cfg.Mu)
			c.IntegrateFullSweep += fullSweep
			c.IntegratedFrames++
		}
		model := vol.Raycast(p.intr, pose, cfg.Mu, 0.3, 5.0)
		c.RaycastSteps += model.Steps
		modelVertex, modelNormal = model.Maps()
		modelPose = pose
	}
	return res
}

// TestRunMatchesEagerReference: Run keeps a raycast while neither the volume
// nor the pose changed and builds a model's maps only when a frame tracks
// against it; it equals runEager to the bit, trajectory and counters, at
// every pair of tracking and integration rates from 1 to 5, and when every
// tracking attempt fails (no ICP iterations), so that a raycast is also kept
// after a failed attempt.
func TestRunMatchesEagerReference(t *testing.T) {
	base := testConfig()
	base.VolumeResolution = 64
	var cfgs []Config
	for tr := 1; tr <= 5; tr++ {
		for ir := 1; ir <= 5; ir++ {
			cfg := base
			cfg.TrackingRate, cfg.IntegrationRate = tr, ir
			cfgs = append(cfgs, cfg)
		}
	}
	lost := base
	lost.IntegrationRate = 3
	lost.PyramidIters = [3]int{0, 0, 0}
	cfgs = append(cfgs, lost)

	p, err := Prepare(testDataset, base.ComputeRatio)
	if err != nil {
		t.Fatal(err)
	}
	bits := func(v any) []byte {
		var buf bytes.Buffer
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, cfg := range cfgs {
		got, err := Run(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := runEager(p, cfg)
		if got.Counters != want.Counters {
			t.Fatalf("rates %d/%d, iterations %v: counters %+v, eager %+v",
				cfg.TrackingRate, cfg.IntegrationRate, cfg.PyramidIters, got.Counters, want.Counters)
		}
		if !bytes.Equal(bits(got.Trajectory), bits(want.Trajectory)) {
			t.Fatalf("rates %d/%d, iterations %v: trajectory differs from eager",
				cfg.TrackingRate, cfg.IntegrationRate, cfg.PyramidIters)
		}
	}
	if c := runEager(p, lost).Counters; c.TrackedFrames != 0 || c.TrackingFailures != c.Frames-1 {
		t.Fatalf("no-iteration case tracked: %+v", c)
	}
}

// BenchmarkRun times one measurement of testConfig on testDataset — Run on
// input prepared once, as KFusionBench shares it — and, as further
// sub-benchmarks, the kernels over every frame: the preprocessing that one
// compute ratio shares, integration at ratio 1 (one voxel per ray step) and
// at ratio 4 (a splatted neighbourhood per step, the loop that draws at the
// larger ratios spend their integration in), the reset that readies a
// ratio-4 volume for reuse, the
// raycast's march, the model maps built from its crossings, and tracking,
// all at the ground-truth poses.
func BenchmarkRun(b *testing.B) {
	cfg := testConfig()
	p, err := Prepare(testDataset, cfg.ComputeRatio)
	if err != nil {
		b.Fatal(err)
	}
	splat, err := Prepare(testDataset, 4)
	if err != nil {
		b.Fatal(err)
	}
	gt := testDataset.GroundTruth
	newVolume := func() *Volume { return NewVolume(cfg.VolumeResolution/volumeScale, volumeSize, geom.V3(0, 1.3, 0)) }
	full := newVolume()
	for i, f := range p.frames {
		full.Integrate(f.depth, p.intr, gt[i], cfg.Mu)
	}
	models := make([]*Model, len(p.frames))
	for i := range models {
		models[i] = full.Raycast(p.intr, gt[i], cfg.Mu, 0.3, 5.0)
	}

	b.Run("run", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := Run(p, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepare", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := Prepare(testDataset, cfg.ComputeRatio); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("integrate", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			vol := newVolume()
			for i, f := range p.frames {
				vol.Integrate(f.depth, p.intr, gt[i], cfg.Mu)
			}
		}
	})
	b.Run("integrate_splat", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			vol := newVolume()
			for i, f := range splat.frames {
				vol.Integrate(f.depth, splat.intr, gt[i], cfg.Mu)
			}
		}
	})
	b.Run("reset", func(b *testing.B) {
		vol := newVolume()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			b.StopTimer()
			for i, f := range splat.frames {
				vol.Integrate(f.depth, splat.intr, gt[i], cfg.Mu)
			}
			b.StartTimer()
			vol.reset()
		}
	})
	b.Run("raycast", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for i := range p.frames {
				full.Raycast(p.intr, gt[i], cfg.Mu, 0.3, 5.0)
			}
		}
	})
	b.Run("maps", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, m := range models {
				// Maps completes the model in place: time it on a copy of the
				// crossings.
				fresh := Model{vol: m.vol, vertex: &imgproc.VecMap{W: m.vertex.W, H: m.vertex.H, Pix: slices.Clone(m.vertex.Pix)}}
				fresh.Maps()
			}
		}
	})
	b.Run("track", func(b *testing.B) {
		for _, m := range models {
			m.Maps()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			for i := 1; i < len(p.frames); i++ {
				vertex, normal := models[i-1].Maps()
				trackICP(&p.frames[i].levels, vertex, normal, p.intr, gt[i-1], gt[i-1], cfg.PyramidIters, cfg.ICPThreshold)
			}
		}
	})
}
