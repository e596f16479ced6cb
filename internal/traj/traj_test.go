package traj

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/sensor"
)

func samplePoses(n int) []geom.Pose {
	return sensor.LivingRoomTrajectory2(n)
}

func TestWriteReadRoundtrip(t *testing.T) {
	orig := FromPoses(samplePoses(25), 30)
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("lengths: %d vs %d", len(back), len(orig))
	}
	for i := range orig {
		if math.Abs(back[i].Time-orig[i].Time) > 1e-6 {
			t.Fatalf("time %d changed", i)
		}
		if geom.Distance(back[i].Pose, orig[i].Pose) > 1e-6 {
			t.Fatalf("translation %d changed", i)
		}
		if geom.RotationAngle(back[i].Pose, orig[i].Pose) > 1e-6 {
			t.Fatalf("rotation %d changed by %v", i, geom.RotationAngle(back[i].Pose, orig[i].Pose))
		}
	}
}

func TestReadSkipsCommentsAndSorts(t *testing.T) {
	in := `# comment
1.0 0 0 0 0 0 0 1

0.5 1 0 0 0 0 0 1
`
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 || tr[0].Time != 0.5 || tr[1].Time != 1.0 {
		t.Fatalf("parsed %+v", tr)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"1.0 0 0 0 0 0 1",         // 7 fields
		"1.0 0 0 0 0 0 0 nope",    // bad float
		"1.0 0 0 0 0.9 0.9 0.9 2", // non-unit quaternion
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}

func TestFromPosesDefaults(t *testing.T) {
	tr := FromPoses(samplePoses(3), 0) // fps 0 -> 30
	if math.Abs(tr[1].Time-1.0/30) > 1e-12 {
		t.Fatalf("default fps wrong: %v", tr[1].Time)
	}
	if len(tr) != 3 {
		t.Fatal("trajectory length wrong")
	}
}

func TestAssociate(t *testing.T) {
	ref := FromPoses(samplePoses(10), 30)
	est := make(Trajectory, 0, 5)
	for i := 0; i < 10; i += 2 {
		s := ref[i]
		s.Time += 0.001 // slight clock offset
		est = append(est, s)
	}
	e, r := Associate(est, ref, 0.01)
	if len(e) != 5 || len(r) != 5 {
		t.Fatalf("associated %d/%d pairs", len(e), len(r))
	}
	// Too-tight tolerance pairs nothing.
	e, _ = Associate(est, ref, 1e-6)
	if len(e) != 0 {
		t.Fatalf("tolerance ignored: %d pairs", len(e))
	}
}

func TestATEStats(t *testing.T) {
	ref := samplePoses(10)
	est := make([]geom.Pose, len(ref))
	copy(est, ref)
	// Offset one pose by 10 cm.
	est[4].T = est[4].T.Add(geom.V3(0.1, 0, 0))
	st, err := ATE(est, ref)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != 10 || math.Abs(st.Max-0.1) > 1e-12 {
		t.Fatalf("stats: %+v", st)
	}
	if math.Abs(st.Mean-0.01) > 1e-12 {
		t.Fatalf("mean: %v", st.Mean)
	}
	if st.Median != 0 {
		t.Fatalf("median: %v", st.Median)
	}
	if _, err := ATE(est[:2], ref); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ATE(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestRPEPerfectTrajectory(t *testing.T) {
	ref := samplePoses(20)
	st, err := RPE(ref, ref, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.TransMean > 1e-12 || st.RotMeanDeg > 1e-9 {
		t.Fatalf("self-RPE nonzero: %+v", st)
	}
	if st.Pairs != 19 {
		t.Fatalf("pairs: %d", st.Pairs)
	}
}

func TestRPEDetectsDrift(t *testing.T) {
	ref := samplePoses(20)
	est := make([]geom.Pose, len(ref))
	// Constant per-frame drift of 5 mm in x.
	for i, p := range ref {
		q := p
		q.T = q.T.Add(geom.V3(0.005*float64(i), 0, 0))
		est[i] = q
	}
	st, err := RPE(est, ref, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.TransMean-0.005) > 1e-9 {
		t.Fatalf("drift not detected: %+v", st)
	}
	// A global offset, in contrast, is invisible to RPE.
	for i := range est {
		est[i] = ref[i]
		est[i].T = est[i].T.Add(geom.V3(5, 0, 0))
	}
	st, _ = RPE(est, ref, 1)
	if st.TransMean > 1e-9 {
		t.Fatalf("global offset leaked into RPE: %+v", st)
	}
}

func TestRPEValidation(t *testing.T) {
	ref := samplePoses(5)
	if _, err := RPE(ref, ref[:3], 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := RPE(ref, ref, 0); err == nil {
		t.Fatal("delta 0 accepted")
	}
	if _, err := RPE(ref, ref, 5); err == nil {
		t.Fatal("delta >= len accepted")
	}
}
