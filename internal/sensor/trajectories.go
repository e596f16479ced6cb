package sensor

import (
	"math"

	"repro/internal/geom"
)

// Additional camera paths standing in for the other ICL-NUIM living-room
// trajectories (the paper's future work calls for "more SLAM input
// data-sets … providing more breadth in terms of trajectories"). Each
// keeps inter-frame motion in the ICP-friendly 1–3 cm band at n = 100.

// LivingRoomTrajectory0 is a gentle side-to-side sweep at near-constant
// height — the easiest sequence (small rotations, central viewpoints).
func LivingRoomTrajectory0(n int) []geom.Pose {
	poses := make([]geom.Pose, n)
	for i := range poses {
		t := float64(i) / float64(max(n-1, 1))
		pos := geom.V3(
			-1.2+2.4*smoothstep(t),
			1.3+0.05*math.Sin(2*math.Pi*t),
			0.9,
		)
		target := geom.V3(0.3*math.Sin(2*math.Pi*t*0.5), 0.9, -0.6)
		poses[i] = LookAt(pos, target, geom.V3(0, 1, 0))
	}
	return poses
}

// LivingRoomTrajectory1 is a dolly-forward-and-turn path: the camera
// approaches the table then pans toward the sofa, stressing scale changes.
func LivingRoomTrajectory1(n int) []geom.Pose {
	poses := make([]geom.Pose, n)
	for i := range poses {
		t := float64(i) / float64(max(n-1, 1))
		pos := geom.V3(
			1.6-1.1*smoothstep(t),
			1.35-0.15*t,
			1.3-0.9*smoothstep(t),
		)
		ang := -0.4 - 1.6*t
		target := geom.V3(pos.X+math.Cos(ang), 0.8, pos.Z+math.Sin(ang))
		poses[i] = LookAt(pos, target, geom.V3(0, 1, 0))
	}
	return poses
}

// LivingRoomTrajectory3 is a figure-eight with height oscillation — the
// hardest path: frequent direction reversals and grazing wall views.
func LivingRoomTrajectory3(n int) []geom.Pose {
	poses := make([]geom.Pose, n)
	for i := range poses {
		t := float64(i) / float64(max(n-1, 1))
		u := 2 * math.Pi * t * 0.55
		pos := geom.V3(
			1.1*math.Sin(u),
			1.25+0.18*math.Sin(2*math.Pi*t*1.1+0.6),
			0.55*math.Sin(2*u),
		)
		// The aim point sits outside the figure-eight so heading changes
		// stay in the trackable band even at the crossings.
		target := geom.V3(
			1.3,
			0.85+0.15*math.Cos(2*math.Pi*t*0.6),
			-1.1,
		)
		poses[i] = LookAt(pos, target, geom.V3(0, 1, 0))
	}
	return poses
}

// Trajectories maps sequence names to their generators.
func Trajectories() map[string]func(int) []geom.Pose {
	return map[string]func(int) []geom.Pose{
		"lr-kt0": LivingRoomTrajectory0,
		"lr-kt1": LivingRoomTrajectory1,
		"lr-kt2": LivingRoomTrajectory2,
		"lr-kt3": LivingRoomTrajectory3,
	}
}

// smoothstep is the C¹ ease-in/ease-out ramp on [0, 1].
func smoothstep(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t * t * (3 - 2*t)
}
