// Package traj reads, writes and evaluates camera trajectories in the TUM
// RGB-D format ("timestamp tx ty tz qx qy qz qw" per line) — the
// interchange format of the SLAM evaluation ecosystem the paper's ATE
// metric comes from (Sturm et al., IROS 2012). It lets trajectories
// estimated by this repository be compared against external tools, and
// external trajectories be scored with our metrics.
package traj

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// Stamped is one trajectory sample.
type Stamped struct {
	Time float64
	Pose geom.Pose
}

// Trajectory is a time-ordered pose sequence.
type Trajectory []Stamped

// FromPoses wraps poses with synthetic timestamps at the given frame rate.
func FromPoses(poses []geom.Pose, fps float64) Trajectory {
	if fps <= 0 {
		fps = 30
	}
	out := make(Trajectory, len(poses))
	for i, p := range poses {
		out[i] = Stamped{Time: float64(i) / fps, Pose: p}
	}
	return out
}

// Write emits the trajectory in TUM format. Rotations are serialized as
// unit quaternions.
func Write(w io.Writer, t Trajectory) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# timestamp tx ty tz qx qy qz qw")
	for _, s := range t {
		q := geom.QuatFromMat(s.Pose.R)
		p := s.Pose.T
		fmt.Fprintf(bw, "%.6f %.9f %.9f %.9f %.9f %.9f %.9f %.9f\n",
			s.Time, p.X, p.Y, p.Z, q.X, q.Y, q.Z, q.W)
	}
	return bw.Flush()
}

// Read parses a TUM-format trajectory. Blank lines and '#' comments are
// skipped; lines must have exactly 8 fields. The result is sorted by
// timestamp.
func Read(r io.Reader) (Trajectory, error) {
	var out Trajectory
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 8 {
			return nil, fmt.Errorf("traj: line %d has %d fields, want 8", lineNo, len(fields))
		}
		vals := make([]float64, 8)
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("traj: line %d field %d: %w", lineNo, i+1, err)
			}
			vals[i] = v
		}
		q := geom.Quat{W: vals[7], X: vals[4], Y: vals[5], Z: vals[6]}
		if math.Abs(q.Norm()-1) > 0.01 {
			return nil, fmt.Errorf("traj: line %d quaternion norm %.3f", lineNo, q.Norm())
		}
		out = append(out, Stamped{
			Time: vals[0],
			Pose: geom.Pose{R: q.Normalized().Mat(), T: geom.V3(vals[1], vals[2], vals[3])},
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	slices.SortFunc(out, func(a, b Stamped) int { return cmp.Compare(a.Time, b.Time) })
	return out, nil
}

// Associate pairs samples of est and ref whose timestamps differ by at
// most maxDt, greedily in time order. It returns the paired poses.
func Associate(est, ref Trajectory, maxDt float64) (e, r []geom.Pose) {
	j := 0
	for _, s := range est {
		for j+1 < len(ref) && math.Abs(ref[j+1].Time-s.Time) <= math.Abs(ref[j].Time-s.Time) {
			j++
		}
		if j < len(ref) && math.Abs(ref[j].Time-s.Time) <= maxDt {
			e = append(e, s.Pose)
			r = append(r, ref[j].Pose)
		}
	}
	return e, r
}

// ATEStats summarizes absolute trajectory error.
type ATEStats struct {
	Mean, Median, Max, RMSE float64
	Pairs                   int
}

// ATE computes translational absolute trajectory error over paired poses
// (no alignment: this repository's trajectories share the ground-truth
// origin, matching SLAMBench's absolute metric).
func ATE(est, ref []geom.Pose) (ATEStats, error) {
	if len(est) != len(ref) || len(est) == 0 {
		return ATEStats{}, fmt.Errorf("traj: %d est vs %d ref poses", len(est), len(ref))
	}
	errs := make([]float64, len(est))
	st := ATEStats{Pairs: len(est)}
	sum2 := 0.0
	for i := range est {
		d := geom.Distance(est[i], ref[i])
		errs[i] = d
		st.Mean += d
		sum2 += float64(d * d) // rounded before it is added: never fused
		if d > st.Max {
			st.Max = d
		}
	}
	st.Mean /= float64(len(est))
	st.RMSE = math.Sqrt(sum2 / float64(len(est)))
	slices.Sort(errs)
	st.Median = errs[len(errs)/2]
	return st, nil
}

// RPEStats summarizes relative pose error over a fixed frame delta.
type RPEStats struct {
	TransMean, TransRMSE float64 // meters per delta
	RotMeanDeg           float64 // degrees per delta
	Pairs                int
}

// RPE computes the relative pose error with the given frame delta: the
// discrepancy between estimated and reference motion over delta-frame
// windows (Sturm et al.'s drift metric; insensitive to global alignment).
func RPE(est, ref []geom.Pose, delta int) (RPEStats, error) {
	if len(est) != len(ref) {
		return RPEStats{}, fmt.Errorf("traj: %d est vs %d ref poses", len(est), len(ref))
	}
	if delta < 1 || delta >= len(est) {
		return RPEStats{}, fmt.Errorf("traj: delta %d out of range for %d poses", delta, len(est))
	}
	var st RPEStats
	sum2 := 0.0
	for i := 0; i+delta < len(est); i++ {
		dEst := est[i].Inverse().Mul(est[i+delta])
		dRef := ref[i].Inverse().Mul(ref[i+delta])
		err := dRef.Inverse().Mul(dEst)
		tErr := err.T.Norm()
		rErr := geom.LogSO3(err.R).Norm()
		st.TransMean += tErr
		sum2 += float64(tErr * tErr) // rounded before it is added: never fused
		st.RotMeanDeg += rErr * 180 / math.Pi
		st.Pairs++
	}
	if st.Pairs > 0 {
		st.TransMean /= float64(st.Pairs)
		st.TransRMSE = math.Sqrt(sum2 / float64(st.Pairs))
		st.RotMeanDeg /= float64(st.Pairs)
	}
	return st, nil
}
