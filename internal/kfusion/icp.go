package kfusion

import (
	"errors"

	"repro/internal/geom"
	"repro/internal/imgproc"
)

// ICP tracking constants (SLAMBench values).
const (
	icpDistThreshold   = 0.1  // max point distance for a correspondence (m)
	icpNormalThreshold = 0.8  // min normal dot product for a correspondence
	minTrackedFraction = 0.10 // minimum fraction of pixels with correspondences
)

// ErrTrackingLost indicates ICP could not produce a reliable pose.
var ErrTrackingLost = errors.New("kfusion: tracking lost")

// icpLevel holds the per-pyramid-level inputs of the tracker.
type icpLevel struct {
	vertex *imgproc.VecMap // camera-frame vertices of the current frame
	normal *imgproc.VecMap // camera-frame normals of the current frame
}

// trackICP estimates the camera-to-world pose of the current frame by
// point-to-plane projective-data-association ICP against the raycasted
// model maps (world coordinates, rendered from refPose's viewpoint at the
// resolution of refIntr).
//
// levels are ordered fine-to-coarse; iterations[l] bounds the Gauss-Newton
// iterations at level l, and iteration stops early once the twist update
// norm drops below threshold (the paper's icp-threshold parameter: large
// values trade accuracy for speed). The returned ops counts point
// operations for the runtime model.
func trackICP(
	levels *[3]icpLevel,
	modelVertex, modelNormal *imgproc.VecMap,
	refIntr imgproc.Intrinsics,
	refPose geom.Pose,
	initial geom.Pose,
	iterations [3]int,
	threshold float64,
) (geom.Pose, int64, error) {
	pose := initial
	refInv := refPose.Inverse()
	var ops int64
	tracked := false

	for li := len(levels) - 1; li >= 0; li-- { // coarse to fine
		lvl := levels[li]
		iters := iterations[li]
		for it := 0; it < iters; it++ {
			var h [36]float64
			var b [6]float64
			matches := 0
			valid := 0
			for y := 0; y < lvl.vertex.H; y++ {
				for x := 0; x < lvl.vertex.W; x++ {
					if !lvl.vertex.ValidAt(x, y) || !lvl.normal.ValidAt(x, y) {
						continue
					}
					valid++
					ops++
					vCam := lvl.vertex.At(x, y)
					vWorld := pose.Apply(vCam)
					// Project into the reference view to find the model
					// correspondence.
					pRef := refInv.Apply(vWorld)
					u, vv, ok := refIntr.Project(pRef)
					if !ok {
						continue
					}
					if !modelVertex.ValidAt(u, vv) || !modelNormal.ValidAt(u, vv) {
						continue
					}
					mV := modelVertex.At(u, vv)
					mN := modelNormal.At(u, vv)
					diff := vWorld.Sub(mV)
					if diff.Norm() > icpDistThreshold {
						continue
					}
					nCamWorld := pose.Rotate(lvl.normal.At(x, y))
					if nCamWorld.Dot(mN) < icpNormalThreshold {
						continue
					}
					matches++
					// Point-to-plane residual and Jacobian for the twist
					// ξ = (v, w): r(ξ) = n·(vWorld + v + w×vWorld − mV).
					r := mN.Dot(diff)
					jv := mN
					jw := vWorld.Cross(mN)
					j := [6]float64{jv.X, jv.Y, jv.Z, jw.X, jw.Y, jw.Z}
					for a := 0; a < 6; a++ {
						b[a] -= float64(j[a] * r)
						for c := a; c < 6; c++ {
							h[a*6+c] += float64(j[a] * j[c])
						}
					}
				}
			}
			if valid == 0 || float64(matches) < minTrackedFraction*float64(valid) {
				break // not enough correspondences at this level
			}
			// Mirror the upper triangle.
			for a := 1; a < 6; a++ {
				for c := 0; c < a; c++ {
					h[a*6+c] = h[c*6+a]
				}
			}
			x, err := geom.Solve6(&h, &b)
			if err != nil {
				break
			}
			dv := geom.V3(x[0], x[1], x[2])
			dw := geom.V3(x[3], x[4], x[5])
			pose = geom.ExpSE3(dv, dw).Mul(pose).Orthonormalize()
			tracked = true
			if dv.Norm()+dw.Norm() < threshold {
				break // converged at this level (icp-threshold semantics)
			}
		}
	}
	if !tracked {
		return initial, ops, ErrTrackingLost
	}
	return pose, ops, nil
}
