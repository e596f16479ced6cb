package elasticfusion

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/sensor"
)

// testDataset renders once for the package: 30 frames with the per-frame
// motion of the nominal 100-frame sweep.
var testDataset = sensor.Generate(sensor.Options{
	Width: 80, Height: 60, Frames: 30,
	Noise:      sensor.KinectNoise(1),
	Trajectory: sensor.TrajectorySlice(sensor.LivingRoomTrajectory2, 100),
})

func meanATE(traj, gt []geom.Pose) float64 {
	sum := 0.0
	for i := range traj {
		sum += geom.Distance(traj[i], gt[i])
	}
	return sum / float64(len(traj))
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{ICPWeight: -1, DepthCutoff: 3, Confidence: 10},
		{ICPWeight: 10, DepthCutoff: 0, Confidence: 10},
		{ICPWeight: 10, DepthCutoff: 3, Confidence: -2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	d := DefaultConfig()
	if d.ICPWeight != 10 || d.DepthCutoff != 3 || d.Confidence != 10 {
		t.Fatalf("default = %+v, want Table I row (10, 3, 10)", d)
	}
	if !d.SO3 || d.OpenLoop || !d.Reloc || d.FastOdom || d.FrameToFrameRGB {
		t.Fatalf("default flags = %+v, want SO3=1, loops on, reloc on", d)
	}
}

func TestRunEndToEnd(t *testing.T) {
	res, err := Run(testDataset, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != testDataset.NumFrames() {
		t.Fatalf("trajectory length %d", len(res.Trajectory))
	}
	ate := meanATE(res.Trajectory, testDataset.GroundTruth)
	if ate > 0.12 {
		t.Fatalf("mean ATE %v m too large — tracking broken", ate)
	}
	c := res.Counters
	if c.Frames != 30 || c.TrackedFrames == 0 {
		t.Fatalf("counters: %+v", c)
	}
	if c.ICPOps == 0 || c.RGBOps == 0 || c.RenderOps == 0 || c.FuseOps == 0 {
		t.Fatalf("work not counted: %+v", c)
	}
	if c.SurfelsFinal == 0 {
		t.Fatal("map is empty")
	}
}

func TestSO3FlagCostsWork(t *testing.T) {
	on := DefaultConfig()
	off := DefaultConfig()
	off.SO3 = false
	ron, err := Run(testDataset, on)
	if err != nil {
		t.Fatal(err)
	}
	roff, err := Run(testDataset, off)
	if err != nil {
		t.Fatal(err)
	}
	if ron.Counters.SO3Ops == 0 {
		t.Fatal("SO3 enabled but no work counted")
	}
	if roff.Counters.SO3Ops != 0 {
		t.Fatal("SO3 disabled but work counted")
	}
}

func TestOpenLoopSkipsLoopClosure(t *testing.T) {
	open := DefaultConfig()
	open.OpenLoop = true
	r, err := Run(testDataset, open)
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.LoopOps != 0 || r.Counters.LoopClosures != 0 {
		t.Fatalf("open loop ran loop closure: %+v", r.Counters)
	}
	closed, err := Run(testDataset, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if closed.Counters.LoopOps == 0 {
		t.Fatal("closed loop did no loop-closure work")
	}
}

func TestFastOdomReducesTrackingWork(t *testing.T) {
	fast := DefaultConfig()
	fast.FastOdom = true
	rf, err := Run(testDataset, fast)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Run(testDataset, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rf.Counters.ICPOps+rf.Counters.RGBOps >= rd.Counters.ICPOps+rd.Counters.RGBOps {
		t.Fatalf("fast odometry should reduce tracking work: %d vs %d",
			rf.Counters.ICPOps+rf.Counters.RGBOps, rd.Counters.ICPOps+rd.Counters.RGBOps)
	}
}

func TestDepthCutoffLimitsData(t *testing.T) {
	shallow := DefaultConfig()
	shallow.DepthCutoff = 1.2
	rs, err := Run(testDataset, shallow)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Run(testDataset, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Counters.FuseOps >= rd.Counters.FuseOps {
		t.Fatalf("shallow cutoff should fuse fewer points: %d vs %d",
			rs.Counters.FuseOps, rd.Counters.FuseOps)
	}
	if rs.Counters.SurfelsFinal >= rd.Counters.SurfelsFinal {
		t.Fatal("shallow cutoff should build a smaller map")
	}
}

func TestLowConfidenceBuildsNoisierBiggerStableSet(t *testing.T) {
	low := DefaultConfig()
	low.Confidence = 1
	rl, err := Run(testDataset, low)
	if err != nil {
		t.Fatal(err)
	}
	// With threshold 1 every surviving surfel is "stable": the map keeps
	// more (unculled) surfels than the default run.
	rd, err := Run(testDataset, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rl.Counters.SurfelsFinal <= rd.Counters.SurfelsFinal {
		t.Fatalf("confidence 1 map (%d) should exceed default map (%d)",
			rl.Counters.SurfelsFinal, rd.Counters.SurfelsFinal)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(nil, DefaultConfig()); err == nil {
		t.Fatal("nil dataset accepted")
	}
	bad := DefaultConfig()
	bad.DepthCutoff = 0
	if _, err := Run(testDataset, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDeterministicRun(t *testing.T) {
	a, err := Run(testDataset, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testDataset, DefaultConfig())
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

// alignPair builds a single-frame map from dataset frame a (at its ground
// truth pose), aligns frame b against it starting from a's pose with the
// given ICP/RGB weight, and reports the translation error to b's ground
// truth before and after.
func alignPair(ds *sensor.Dataset, a, b int, icpWeight float64) (startErr, endErr float64, err error) {
	intr := ds.Intrinsics
	poseA, gtB := ds.GroundTruth[a], ds.GroundTruth[b]
	curA, _ := buildFrameData(ds.Frames[a].Depth, ds.Frames[a].Intensity, intr, pyramidLevels)
	curB, _ := buildFrameData(ds.Frames[b].Depth, ds.Frames[b].Intensity, intr, pyramidLevels)

	smap := &SurfelMap{}
	smap.Fuse(curA.vertex[0], curA.normal[0], curA.intensity[0], intr, poseA, newRenderMaps(intr.W, intr.H), 0, 1, 0)
	model, _ := smap.Render(intr, poseA, nil)
	aligned, _, _, err := jointTrack(
		curB, model, model.intensity, model.vertex, poseA, intr,
		poseA, icpWeight, []int{0, 1, 2}, []int{10, 5, 4},
	)
	return geom.Distance(poseA, gtB), geom.Distance(aligned, gtB), err
}

func TestDebugAlignConvergesBothTerms(t *testing.T) {
	// Both the geometric and the photometric term must individually shrink
	// the initial pose error between consecutive frames.
	for _, w := range []float64{0, 10, 100} {
		start, end, err := alignPair(testDataset, 0, 1, w)
		if err != nil {
			t.Fatalf("weight %v: %v", w, err)
		}
		if end > start*0.6 {
			t.Fatalf("weight %v: %v -> %v (no convergence)", w, start, end)
		}
	}
}

func TestSurfelMapFuseMergesRevisits(t *testing.T) {
	intr := imgproc.StandardIntrinsics(32, 24)
	depth := imgproc.NewMap(32, 24)
	for i := range depth.Pix {
		depth.Pix[i] = 2
	}
	intensity := imgproc.NewMap(32, 24)
	vertex := imgproc.DepthToVertex(depth, intr)
	normal := imgproc.VertexToNormal(vertex)
	pose := geom.IdentityPose()

	m := &SurfelMap{}
	empty := newRenderMaps(32, 24)
	st1 := m.Fuse(vertex, normal, intensity, intr, pose, empty, 0, 5, 0)
	if st1.added == 0 || st1.merged != 0 {
		t.Fatalf("first fuse: %+v", st1)
	}
	n1 := m.Len()

	assoc, _ := m.Render(intr, pose, nil)
	st2 := m.Fuse(vertex, normal, intensity, intr, pose, assoc, 1, 5, 0)
	if st2.merged == 0 {
		t.Fatalf("second fuse should merge: %+v", st2)
	}
	if m.Len() > n1+n1/5 {
		t.Fatalf("revisit nearly doubled the map: %d -> %d", n1, m.Len())
	}
}

func TestSurfelCulling(t *testing.T) {
	m := &SurfelMap{Surfels: []Surfel{
		{Conf: 1, LastSeen: 0},
		{Conf: 20, LastSeen: 0},
	}}
	intr := imgproc.StandardIntrinsics(8, 8)
	empty := newRenderMaps(8, 8)
	vertex := imgproc.NewVecMap(8, 8) // all invalid: fuse only culls
	normal := imgproc.NewVecMap(8, 8)
	intensity := imgproc.NewMap(8, 8)
	st := m.Fuse(vertex, normal, intensity, intr, geom.IdentityPose(), empty, 100, 10, 25)
	if st.culled != 1 || m.Len() != 1 {
		t.Fatalf("culling: %+v, len %d", st, m.Len())
	}
	if m.Surfels[0].Conf != 20 {
		t.Fatal("culled the wrong surfel")
	}
}

func TestFernEncodeAndMatch(t *testing.T) {
	db := newFernDB(32, 16, 12, 1)
	f0 := testDataset.Frames[0]
	f1 := testDataset.Frames[1]
	fLast := testDataset.Frames[testDataset.NumFrames()-1]

	c0, ops := db.encode(f0.Depth, f0.Intensity)
	if ops != 32 || len(c0) != 32 {
		t.Fatalf("encode: %d ops, %d code", ops, len(c0))
	}
	c1, _ := db.encode(f1.Depth, f1.Intensity)
	cLast, _ := db.encode(fLast.Depth, fLast.Intensity)

	dNear := dissimilarity(c0, c1)
	dFar := dissimilarity(c0, cLast)
	if dNear > dFar {
		t.Fatalf("adjacent frames more dissimilar (%v) than distant (%v)", dNear, dFar)
	}
	db.add(c0, testDataset.GroundTruth[0], 0)
	db.add(cLast, testDataset.GroundTruth[testDataset.NumFrames()-1], 29)
	e, score, ok := db.best(c1, 28)
	if !ok || e.frame != 0 {
		t.Fatalf("best match frame %d (score %v, ok %v), want 0", e.frame, score, ok)
	}
	// maxFrame excludes newer entries.
	if _, _, ok := db.best(c1, -1); ok {
		t.Fatal("maxFrame filter ignored")
	}
}

func TestDissimilarityEdgeCases(t *testing.T) {
	if dissimilarity(nil, nil) != 1 {
		t.Fatal("empty codes should be maximally dissimilar")
	}
	if dissimilarity([]uint8{1, 2}, []uint8{1}) != 1 {
		t.Fatal("length mismatch should be maximally dissimilar")
	}
	if dissimilarity([]uint8{1, 2}, []uint8{1, 2}) != 0 {
		t.Fatal("identical codes should have zero dissimilarity")
	}
}

func BenchmarkPipelineRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(testDataset, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
