package device

import (
	"fmt"
	"math"
	"math/rand"
)

// MarketDevice is one crowd-sourced phone or tablet profile of Figure 5.
type MarketDevice struct {
	Model
	// SoC is a human-readable SoC family tag.
	SoC string
}

// RelativeSpeed returns the device's overall slowdown relative to the
// ODROID-XU3 reference: 1.0 is reference speed, 2.0 takes twice as long.
// Crowd simulators (cmd/loadharness) scale per-client latency and
// think-time distributions by it, so a simulated population inherits the
// market's heavy-tailed speed spread.
func (d MarketDevice) RelativeSpeed() float64 {
	return d.DefaultNs / ODROIDXU3().DefaultNs
}

// socFamily is a template the market generator perturbs.
type socFamily struct {
	name        string
	class       string
	speed       float64 // overall speed multiplier vs the ODROID (higher = slower device)
	spread      float64 // lognormal sigma of per-kernel variation
	probability float64 // sampling weight
}

// families reflects the 2016/2017 Android market the SLAMBench app reached:
// mostly ARM SoCs with Mali or Adreno GPUs across several generations.
var families = []socFamily{
	{"Exynos-Mali-T6xx", "embedded-gpu", 1.00, 0.25, 0.20},
	{"Snapdragon-Adreno-3xx", "embedded-gpu", 1.65, 0.35, 0.22},
	{"Snapdragon-Adreno-4xx", "embedded-gpu", 0.80, 0.30, 0.18},
	{"Mediatek-Mali-4xx", "embedded-gpu", 2.6, 0.40, 0.15},
	{"Exynos-Mali-T7xx", "embedded-gpu", 0.62, 0.25, 0.12},
	{"Tegra-K1", "embedded-gpu", 0.45, 0.30, 0.06},
	{"Intel-HD-Atom", "integrated-gpu", 1.15, 0.30, 0.07},
}

// MarketDevices generates n deterministic pseudo-random device profiles
// whose per-kernel coefficients vary around ARM-class ratios. The paper's
// crowd-sourcing experiment reached 83 devices; MarketDevices(83, 1) is the
// Figure 5 population.
func MarketDevices(n int, seed int64) []MarketDevice {
	rng := rand.New(rand.NewSource(seed))
	base := ODROIDXU3()
	out := make([]MarketDevice, 0, n)

	totalP := 0.0
	for _, f := range families {
		totalP += f.probability
	}

	for i := 0; i < n; i++ {
		// Pick a family by weight.
		pick := rng.Float64() * totalP
		fam := families[0]
		for _, f := range families {
			if pick < f.probability {
				fam = f
				break
			}
			pick -= f.probability
		}
		// Device-level overall speed variation (binning, thermals, OS).
		overall := fam.speed * math.Exp(rng.NormFloat64()*0.22)
		// Per-kernel variation, drawn in Kernel order: different GPU
		// generations have very different relative costs for regular vs
		// irregular kernels.
		coeff := base.CoeffNs
		for k := range coeff {
			coeff[k] = coeff[k] * overall * math.Exp(rng.NormFloat64()*fam.spread)
		}
		out = append(out, MarketDevice{
			Model: Model{
				Name:            fmt.Sprintf("device-%02d-%s", i+1, fam.name),
				Class:           fam.class,
				CoeffNs:         coeff,
				DefaultNs:       base.DefaultNs * overall,
				FrameOverheadMs: base.FrameOverheadMs * math.Exp(rng.NormFloat64()*0.3),
				PowerStaticW:    0.3 + float64(rng.Float64()*0.8), // rounded before it is added: never fused
				EnergyNJ:        base.EnergyNJ,
			},
			SoC: fam.name,
		})
	}
	return out
}
