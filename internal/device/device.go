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
// ≈ 22.2 s for the sequence on the GTX 780 Ti); see "Simulation substrate"
// in docs/ARCHITECTURE.md.
package device

import "fmt"

// Kernel names one kernel class of the two SLAM pipelines. The constants are
// declared in alphabetical order of the kernel names, which is the order a
// cost is summed in: float addition is not associative, so reordering them
// moves the last bit of every modelled runtime, and with it the fronts.
type Kernel int

const (
	KernelBilateral Kernel = iota
	KernelFern
	KernelFuse
	KernelICP
	KernelIntegrate
	KernelLoop
	KernelPreprocess
	KernelPyramid
	KernelRaycast
	KernelRender
	KernelResize
	KernelRGB
	KernelSO3
	KernelTrack
	numKernels
)

// Work is a per-kernel operation count vector, in paper-scale operations
// (640×480-equivalent image kernels; full-volume sweeps for integration).
// A pipeline leaves the kernels it does not run at zero.
type Work [numKernels]float64

// Prices is a per-kernel cost table: nanoseconds or nanojoules per operation.
type Prices [numKernels]float64

// PricesOf builds a table that prices the listed kernels as given and every
// other kernel at def.
func PricesOf(def float64, listed map[Kernel]float64) Prices {
	var p Prices
	for k := range p {
		p[k] = def
	}
	for k, v := range listed {
		p[k] = v
	}
	return p
}

// cost returns Σ ops × price over the kernels, in Kernel order.
func (p Prices) cost(w Work) float64 {
	t := 0.0
	for k, ops := range w {
		t += float64(ops * p[k]) // rounded before it is added: never fused
	}
	return t
}

// Model converts counted kernel work into modeled time and power.
type Model struct {
	// Name identifies the platform ("ODROID-XU3", …).
	Name string
	// Class is a coarse family tag used in reports ("embedded-gpu",
	// "integrated-gpu", "discrete-gpu").
	Class string
	// CoeffNs is nanoseconds per operation, per kernel.
	CoeffNs Prices
	// DefaultNs is the price CoeffNs gives a kernel the platform does not
	// list; MarketDevice.RelativeSpeed compares it across devices.
	DefaultNs float64
	// FrameOverheadMs is fixed per-frame time (dispatch, sync, copies).
	FrameOverheadMs float64
	// PowerStaticW is the idle platform power.
	PowerStaticW float64
	// EnergyNJ is nanojoules per operation, per kernel, for the power
	// objective.
	EnergyNJ Prices
}

// SecondsPerFrame converts a run's total work over frames frames into
// modeled seconds per frame.
func (m Model) SecondsPerFrame(w Work, frames float64) float64 {
	if frames <= 0 {
		return 0
	}
	return m.CoeffNs.cost(w)/1e9/frames + m.FrameOverheadMs/1e3
}

// AveragePowerW models the average power draw while processing at the
// modeled frame time: static power plus dynamic energy divided by time.
func (m Model) AveragePowerW(w Work, frames float64) float64 {
	secPerFrame := m.SecondsPerFrame(w, frames)
	if secPerFrame <= 0 || frames <= 0 {
		return m.PowerStaticW
	}
	joulesPerFrame := m.EnergyNJ.cost(w) / 1e9 / frames
	return m.PowerStaticW + joulesPerFrame/secPerFrame
}

// String implements fmt.Stringer.
func (m Model) String() string { return fmt.Sprintf("%s (%s)", m.Name, m.Class) }

// ODROIDXU3 models the Hardkernel ODROID-XU3 (Exynos 5422, Mali-T628-MP6
// 4-core OpenCL device). Calibrated so the default KFusion configuration
// runs at ≈ 6 FPS (§IV-B).
func ODROIDXU3() Model {
	const defaultNs = 3.0
	return Model{
		Name:  "ODROID-XU3",
		Class: "embedded-gpu",
		CoeffNs: PricesOf(defaultNs, map[Kernel]float64{
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
		}),
		DefaultNs:       defaultNs,
		FrameOverheadMs: 6.0,
		PowerStaticW:    0.45,
		EnergyNJ: PricesOf(5.0, map[Kernel]float64{
			KernelBilateral: 4.5,
			KernelTrack:     11.0,
			KernelIntegrate: 8.0,
			KernelRaycast:   7.0,
		}),
	}
}

// ASUST200TA models the ASUS Transformer T200TA (Intel Atom Z3795 + HD
// Graphics via Beignet). A little faster than the ODROID on regular image
// kernels, comparatively slower on irregular memory access.
func ASUST200TA() Model {
	const defaultNs = 2.4
	return Model{
		Name:  "ASUS-T200TA",
		Class: "integrated-gpu",
		CoeffNs: PricesOf(defaultNs, map[Kernel]float64{
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
		}),
		DefaultNs:       defaultNs,
		FrameOverheadMs: 8.0,
		PowerStaticW:    0.9,
		EnergyNJ: PricesOf(4.0, map[Kernel]float64{
			KernelBilateral: 3.6,
			KernelTrack:     9.0,
			KernelIntegrate: 7.0,
			KernelRaycast:   6.5,
		}),
	}
}

// GTX780Ti models the desktop NVIDIA GTX 780 Ti the ElasticFusion authors
// developed on. Calibrated so the default ElasticFusion configuration takes
// ≈ 22.2 s over the nominal 880-frame sequence (Table I).
func GTX780Ti() Model {
	const defaultNs = 2.5
	return Model{
		Name:  "GTX-780Ti",
		Class: "discrete-gpu",
		CoeffNs: PricesOf(defaultNs, map[Kernel]float64{
			KernelPreprocess: 1.5,
			KernelPyramid:    1.5,
			KernelSO3:        2.7,
			KernelICP:        4.7,
			KernelRGB:        3.7,
			KernelRender:     3.0,
			KernelFuse:       2.7,
			KernelLoop:       4.4,
			KernelFern:       2.0,
		}),
		DefaultNs:       defaultNs,
		FrameOverheadMs: 2.0,
		PowerStaticW:    35,
		EnergyNJ:        PricesOf(45, nil),
	}
}

// DesktopCPU models the 8-core Ivy Bridge host (E5-1620 v2) for
// completeness (the paper runs ElasticFusion on the GPU).
func DesktopCPU() Model {
	const defaultNs = 2.0
	return Model{
		Name:            "IvyBridge-E5",
		Class:           "cpu",
		CoeffNs:         PricesOf(defaultNs, nil),
		DefaultNs:       defaultNs,
		FrameOverheadMs: 0.5,
		PowerStaticW:    25,
		EnergyNJ:        PricesOf(20, nil),
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
