package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/device"
	"repro/internal/plot"
	"repro/internal/slambench"
	"repro/internal/stats"
)

// Fig5Result is the crowd-sourcing study of Figure 5: the speedup of the
// ODROID-Pareto best-runtime configuration over the default configuration
// on each of the 83 market devices, plus the §IV-D cross-device transfer
// correlations.
type Fig5Result struct {
	Devices  []string
	SoCs     []string
	Speedups []float64 // sorted ascending, aligned with Devices

	MinSpeedup, MaxSpeedup, MedianSpeedup float64

	// PearsonToODROID and SpearmanToODROID are the correlations between
	// per-configuration runtimes on the ODROID and on each market device,
	// averaged over the population — the zero-shot-transfer argument of
	// §IV-D (Roy et al. [43]).
	PearsonToODROID  float64
	SpearmanToODROID float64
}

// Fig5 reproduces the crowd-sourcing experiment. If dse is non-nil its
// best-valid-speed configuration is deployed; otherwise a Fig. 3a
// exploration runs first at the same scale.
func Fig5(opts Options, dse *DSEResult) (*Fig5Result, error) {
	opts = opts.withDefaults()
	if dse == nil {
		var err error
		dse, err = Fig3(opts, "ODROID-XU3")
		if err != nil {
			return nil, err
		}
	}
	bench := slambench.NewKFusionBench(slambench.CachedDataset(opts.datasetScale()))
	space := bench.Space()

	best := dse.BestValidSpeed
	if best == nil {
		// Fall back to the fastest front point when nothing met the
		// accuracy limit at this scale.
		if s, ok := dse.Run.ByIndex(dse.BestSpeed.Index); ok {
			best = &s
		} else {
			return nil, fmt.Errorf("experiments: exploration produced no deployable configuration")
		}
	}
	bestCfg := space.AtIndex(best.Index)
	defCfg := bench.DefaultConfig()

	// The SLAM pipelines are device-independent: run each configuration
	// once and re-price the counted work per device.
	bestM, err := bench.Evaluate(bestCfg, device.ODROIDXU3())
	if err != nil {
		return nil, err
	}
	defM, err := bench.Evaluate(defCfg, device.ODROIDXU3())
	if err != nil {
		return nil, err
	}

	n := 83
	if opts.Scale == ScaleTest {
		n = 12
	}
	devices := device.MarketDevices(n, opts.Seed)
	res := &Fig5Result{}
	frames := float64(bestM.Frames)
	for _, d := range devices {
		sBest := d.SecondsPerFrame(bestM.Work, frames)
		sDef := d.SecondsPerFrame(defM.Work, frames)
		res.Devices = append(res.Devices, d.Name)
		res.SoCs = append(res.SoCs, d.SoC)
		res.Speedups = append(res.Speedups, sDef/sBest)
	}
	// Sort ascending by speedup (the paper's bar chart ordering), ties in
	// device order, so the order is total and no sort algorithm moves it.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(res.Speedups[a], res.Speedups[b]), cmp.Compare(a, b))
	})
	res.Devices = permuteS(res.Devices, idx)
	res.SoCs = permuteS(res.SoCs, idx)
	res.Speedups = permuteF(res.Speedups, idx)

	res.MinSpeedup = res.Speedups[0]
	res.MaxSpeedup = res.Speedups[len(res.Speedups)-1]
	res.MedianSpeedup, _ = stats.Median(res.Speedups)

	// Transfer analysis: runtime of a probe set of configurations on the
	// ODROID vs each market device.
	probes := probeConfigs(bench, opts)
	odroidRt := make([]float64, len(probes))
	for i, pm := range probes {
		odroidRt[i] = device.ODROIDXU3().SecondsPerFrame(pm.Work, float64(pm.Frames))
	}
	var sumP, sumS float64
	for _, d := range devices {
		rt := make([]float64, len(probes))
		for i, pm := range probes {
			rt[i] = d.SecondsPerFrame(pm.Work, float64(pm.Frames))
		}
		p, err := stats.Pearson(odroidRt, rt)
		if err != nil {
			return nil, err
		}
		s, err := stats.Spearman(odroidRt, rt)
		if err != nil {
			return nil, err
		}
		sumP += p
		sumS += s
	}
	res.PearsonToODROID = sumP / float64(len(devices))
	res.SpearmanToODROID = sumS / float64(len(devices))

	rows := make([][]string, len(res.Devices))
	for i := range res.Devices {
		rows[i] = []string{res.Devices[i], res.SoCs[i], f2s(res.Speedups[i])}
	}
	if err := writeCSV(opts.OutDir, "fig5_crowdsourcing.csv",
		[]string{"device", "soc", "speedup_vs_default"}, rows); err != nil {
		return nil, err
	}
	return res, nil
}

// probeConfigs evaluates a small spread of configurations once (on the
// simulator) for the transfer-correlation analysis.
func probeConfigs(bench *slambench.KFusionBench, opts Options) []slambench.Metrics {
	space := bench.Space()
	n := 10
	if opts.Scale == ScaleTest {
		n = 4
	}
	idxs := space.SampleIndices(randFor(opts.Seed+77), n)
	var out []slambench.Metrics
	for _, idx := range idxs {
		m, err := bench.Evaluate(space.AtIndex(idx), device.ODROIDXU3())
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	return out
}

// Render draws the sorted speedup bars and the headline statistics.
func (r *Fig5Result) Render(w io.Writer) {
	// Histogram-style summary first (83 bars overflow a terminal).
	counts := stats.Histogram(r.Speedups, 0, 14, 14)
	plot.Histogram(w, fmt.Sprintf(
		"Fig. 5 — speedup of the ODROID-Pareto best config vs default on %d market devices",
		len(r.Devices)), 0, 14, counts, 40)
	fprintfIgnore(w, "speedup: min %.2fx, median %.2fx, max %.2fx\n",
		r.MinSpeedup, r.MedianSpeedup, r.MaxSpeedup)
	fprintfIgnore(w, "transfer correlation to ODROID: Pearson %.3f, Spearman %.3f\n",
		r.PearsonToODROID, r.SpearmanToODROID)
}

func permuteS(in []string, idx []int) []string {
	out := make([]string, len(in))
	for i, j := range idx {
		out[i] = in[j]
	}
	return out
}

func permuteF(in []float64, idx []int) []float64 {
	out := make([]float64, len(in))
	for i, j := range idx {
		out[i] = in[j]
	}
	return out
}
