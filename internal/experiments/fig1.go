package experiments

import (
	"io"
	"log"
	"math"

	"repro/internal/device"
	"repro/internal/slambench"
)

// Fig1Result is the KFusion runtime response surface of Figure 1: modeled
// frame runtime (ms) on the ODROID-XU3 over µ × icp-threshold with every
// other parameter at its default.
type Fig1Result struct {
	MuValues  []float64
	ICPValues []float64
	// RuntimeMs[i][j] is the frame runtime at MuValues[i], ICPValues[j].
	RuntimeMs [][]float64
	// MaxATE[i][j] is the corresponding accuracy (not plotted in the
	// paper's figure but recorded for inspection).
	MaxATE [][]float64
}

// Fig1 sweeps the µ × icp-threshold plane (Fig. 1: "non-convex, multi-modal
// and non-smooth runtime response surface").
func Fig1(opts Options) (*Fig1Result, error) {
	opts = opts.withDefaults()
	ds := slambench.CachedDataset(opts.datasetScale())
	bench := slambench.NewKFusionBench(ds)
	dev := device.ODROIDXU3()

	var mus, icps []float64
	switch opts.Scale {
	case ScaleTest:
		mus = []float64{0.05, 0.2, 0.4}
		icps = []float64{1e-6, 1e-3, 1}
	case ScaleFull:
		mus = linspace(0.025, 0.5, 12)
		icps = logspace(1e-7, 1e2, 12)
	default:
		mus = linspace(0.025, 0.5, 6)
		icps = logspace(1e-6, 1e1, 6)
	}

	res := &Fig1Result{MuValues: mus, ICPValues: icps}
	def := bench.DefaultConfig()
	space := bench.Space()
	for _, mu := range mus {
		rtRow := make([]float64, len(icps))
		ateRow := make([]float64, len(icps))
		for j, icp := range icps {
			cfg := def.Clone()
			cfg[space.IndexOfName(slambench.KFMu)] = mu
			cfg[space.IndexOfName(slambench.KFICPThresh)] = icp
			m, err := bench.Evaluate(cfg, dev)
			if err != nil {
				return nil, err
			}
			rtRow[j] = m.SecPerFrame * 1e3
			ateRow[j] = m.MaxATE
		}
		res.RuntimeMs = append(res.RuntimeMs, rtRow)
		res.MaxATE = append(res.MaxATE, ateRow)
		log.Printf("fig1: mu=%.3f done", mu)
	}

	rows := make([][]string, 0, len(mus)*len(icps))
	for i, mu := range mus {
		for j, icp := range icps {
			rows = append(rows, []string{f2s(mu), f2s(icp),
				f2s(res.RuntimeMs[i][j]), f2s(res.MaxATE[i][j])})
		}
	}
	if err := writeCSV(opts.OutDir, "fig1_response_surface.csv",
		[]string{"mu_m", "icp_threshold", "frame_runtime_ms", "max_ate_m"}, rows); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the surface as a value grid (µ rows × threshold columns).
func (r *Fig1Result) Render(w io.Writer) {
	fprintfIgnore(w, "Fig. 1 — KFusion frame runtime (ms) on ODROID-XU3, mu × icp-threshold\n")
	fprintfIgnore(w, "%10s", "mu\\icp")
	for _, icp := range r.ICPValues {
		fprintfIgnore(w, " %9.1e", icp)
	}
	fprintfIgnore(w, "\n")
	for i, mu := range r.MuValues {
		fprintfIgnore(w, "%10.3f", mu)
		for j := range r.ICPValues {
			fprintfIgnore(w, " %9.1f", r.RuntimeMs[i][j])
		}
		fprintfIgnore(w, "\n")
	}
}

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

func logspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	return out
}
