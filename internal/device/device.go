// Package device provides the hardware platform models of the evaluation:
// analytic per-kernel cost models standing in for the paper's ODROID-XU3
// (Samsung Exynos 5422 + Mali-T628), ASUS T200TA (Intel Atom Z3795 + HD
// Graphics), and the NVIDIA GTX 780 Ti desktop, plus the 83 crowd-sourced
// market devices of Figure 5.
//
// The SLAM pipelines run for real and report counted work per kernel class;
// a Model converts that work into modeled wall-clock time and power. The
// coefficients are calibrated so the paper's default configurations land on
// its headline numbers (KFusion ≈ 6 FPS on the ODROID, ElasticFusion
// ≈ 22.2 s for the sequence on the GTX 780 Ti); see DESIGN.md §1.
package device

import (
	"fmt"
	"slices"
)

// Work is a per-kernel operation count vector, in paper-scale operations
// (640×480-equivalent image kernels; full-volume sweeps for integration).
type Work map[string]float64

// Add accumulates other into w.
func (w Work) Add(other Work) {
	for k, v := range other {
		w[k] += v
	}
}

// Scale multiplies every entry by f and returns w.
func (w Work) Scale(f float64) Work {
	for k := range w {
		w[k] *= f
	}
	return w
}

// Total returns the sum of all entries.
func (w Work) Total() float64 {
	return w.sum(func(string) float64 { return 1 })
}

// sum adds ops × price(kernel) over w in sorted kernel-name order. Float
// addition is not associative: in map iteration order one Work's sum
// differs in its last bit from call to call, and with it the objectives of
// one configuration between two evaluations.
func (w Work) sum(price func(kernel string) float64) float64 {
	kernels := make([]string, 0, len(w))
	for k := range w {
		kernels = append(kernels, k)
	}
	slices.Sort(kernels)
	t := 0.0
	for _, k := range kernels {
		t += w[k] * price(k)
	}
	return t
}

// priced returns a kernel's price from table, or def for a kernel it lacks.
func priced(table map[string]float64, def float64) func(string) float64 {
	return func(kernel string) float64 {
		if p, ok := table[kernel]; ok {
			return p
		}
		return def
	}
}

// Model converts counted kernel work into modeled time and power.
type Model struct {
	// Name identifies the platform ("ODROID-XU3", …).
	Name string
	// Class is a coarse family tag used in reports ("embedded-gpu",
	// "integrated-gpu", "discrete-gpu").
	Class string
	// CoeffNs maps kernel name → nanoseconds per operation. Kernels
	// missing from the map fall back to DefaultNs.
	CoeffNs map[string]float64
	// DefaultNs prices unknown kernels.
	DefaultNs float64
	// FrameOverheadMs is fixed per-frame time (dispatch, sync, copies).
	FrameOverheadMs float64
	// PowerStaticW is the idle platform power.
	PowerStaticW float64
	// EnergyNJ maps kernel name → nanojoules per operation for the power
	// objective (falls back to DefaultNJ).
	EnergyNJ  map[string]float64
	DefaultNJ float64
}

// SecondsPerFrame converts a run's total work over frames frames into
// modeled seconds per frame.
func (m Model) SecondsPerFrame(w Work, frames float64) float64 {
	if frames <= 0 {
		return 0
	}
	ns := w.sum(priced(m.CoeffNs, m.DefaultNs))
	return ns/1e9/frames + m.FrameOverheadMs/1e3
}

// AveragePowerW models the average power draw while processing at the
// modeled frame time: static power plus dynamic energy divided by time.
func (m Model) AveragePowerW(w Work, frames float64) float64 {
	secPerFrame := m.SecondsPerFrame(w, frames)
	if secPerFrame <= 0 || frames <= 0 {
		return m.PowerStaticW
	}
	joulesPerFrame := w.sum(priced(m.EnergyNJ, m.DefaultNJ)) / 1e9 / frames
	return m.PowerStaticW + joulesPerFrame/secPerFrame
}

// String implements fmt.Stringer.
func (m Model) String() string { return fmt.Sprintf("%s (%s)", m.Name, m.Class) }

// Kernel name constants shared with the slambench adapters.
const (
	KernelResize    = "resize"
	KernelBilateral = "bilateral"
	KernelPyramid   = "pyramid"
	KernelTrack     = "track"
	KernelIntegrate = "integrate"
	KernelRaycast   = "raycast"

	KernelPreprocess = "preprocess"
	KernelSO3        = "so3"
	KernelICP        = "icp"
	KernelRGB        = "rgb"
	KernelRender     = "render"
	KernelFuse       = "fuse"
	KernelLoop       = "loop"
	KernelFern       = "fern"
)

// ODROIDXU3 models the Hardkernel ODROID-XU3 (Exynos 5422, Mali-T628-MP6
// 4-core OpenCL device). Calibrated so the default KFusion configuration
// runs at ≈ 6 FPS (§IV-B).
func ODROIDXU3() Model {
	return Model{
		Name:  "ODROID-XU3",
		Class: "embedded-gpu",
		CoeffNs: map[string]float64{
			KernelResize:    0.8,
			KernelBilateral: 3.3,
			KernelPyramid:   1.9,
			KernelTrack:     10.0,
			KernelIntegrate: 6.6,
			KernelRaycast:   5.7,
			// ElasticFusion kernels: an embedded GPU runs the surfel
			// pipeline roughly an order of magnitude slower than the
			// GTX 780 Ti it was designed for.
			KernelPreprocess: 12,
			KernelSO3:        22,
			KernelICP:        38,
			KernelRGB:        30,
			KernelRender:     24,
			KernelFuse:       22,
			KernelLoop:       36,
			KernelFern:       16,
		},
		DefaultNs:       3.0,
		FrameOverheadMs: 6.0,
		PowerStaticW:    0.45,
		EnergyNJ: map[string]float64{
			KernelBilateral: 4.5,
			KernelTrack:     11.0,
			KernelIntegrate: 8.0,
			KernelRaycast:   7.0,
		},
		DefaultNJ: 5.0,
	}
}

// ASUST200TA models the ASUS Transformer T200TA (Intel Atom Z3795 + HD
// Graphics via Beignet). A little faster than the ODROID on regular image
// kernels, comparatively slower on irregular memory access.
func ASUST200TA() Model {
	return Model{
		Name:  "ASUS-T200TA",
		Class: "integrated-gpu",
		CoeffNs: map[string]float64{
			KernelResize:    0.6,
			KernelBilateral: 1.9,
			KernelPyramid:   1.2,
			KernelTrack:     6.0,
			KernelIntegrate: 4.9,
			KernelRaycast:   4.4,
			// ElasticFusion kernels (see ODROID note).
			KernelPreprocess: 10,
			KernelSO3:        18,
			KernelICP:        32,
			KernelRGB:        26,
			KernelRender:     20,
			KernelFuse:       19,
			KernelLoop:       30,
			KernelFern:       13,
		},
		DefaultNs:       2.4,
		FrameOverheadMs: 8.0,
		PowerStaticW:    0.9,
		EnergyNJ: map[string]float64{
			KernelBilateral: 3.6,
			KernelTrack:     9.0,
			KernelIntegrate: 7.0,
			KernelRaycast:   6.5,
		},
		DefaultNJ: 4.0,
	}
}

// GTX780Ti models the desktop NVIDIA GTX 780 Ti the ElasticFusion authors
// developed on. Calibrated so the default ElasticFusion configuration takes
// ≈ 22.2 s over the nominal 880-frame sequence (Table I).
func GTX780Ti() Model {
	return Model{
		Name:  "GTX-780Ti",
		Class: "discrete-gpu",
		CoeffNs: map[string]float64{
			KernelPreprocess: 1.5,
			KernelPyramid:    1.5,
			KernelSO3:        2.7,
			KernelICP:        4.7,
			KernelRGB:        3.7,
			KernelRender:     3.0,
			KernelFuse:       2.7,
			KernelLoop:       4.4,
			KernelFern:       2.0,
		},
		DefaultNs:       2.5,
		FrameOverheadMs: 2.0,
		PowerStaticW:    35,
		EnergyNJ:        map[string]float64{},
		DefaultNJ:       45,
	}
}

// DesktopCPU models the 8-core Ivy Bridge host (E5-1620 v2) for
// completeness (the paper runs ElasticFusion on the GPU).
func DesktopCPU() Model {
	return Model{
		Name:            "IvyBridge-E5",
		Class:           "cpu",
		CoeffNs:         map[string]float64{},
		DefaultNs:       2.0,
		FrameOverheadMs: 0.5,
		PowerStaticW:    25,
		EnergyNJ:        map[string]float64{},
		DefaultNJ:       20,
	}
}

// Platforms returns the named evaluation platforms in a stable order.
func Platforms() []Model {
	return []Model{ODROIDXU3(), ASUST200TA(), GTX780Ti(), DesktopCPU()}
}

// ByName returns the platform with the given name.
func ByName(name string) (Model, bool) {
	for _, m := range Platforms() {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}
