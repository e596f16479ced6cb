package experiments

import (
	"fmt"
	"io"

	"repro/internal/param"
	"repro/internal/pareto"
	"repro/internal/slambench"
)

// Table1Row is one row of Table I: an ElasticFusion configuration with its
// measured error and runtime.
type Table1Row struct {
	Label      string
	ErrorM     float64 // mean ATE (Table I "Error (m)")
	RuntimeS   float64 // total seconds over the nominal sequence
	ICP        float64
	Depth      float64
	Confidence float64
	SO3        int
	CloseLoops int // the paper's "Close-Loops" column (open-loop flag)
	Reloc      int
	FastOdom   int
	FTFRGB     int
}

// Table1Result is the reproduced Table I: the default configuration plus
// Pareto-efficiency points from the ElasticFusion exploration on the
// GTX 780 Ti.
type Table1Result struct {
	Rows []Table1Row
	// SpeedupBestSpeed is default/best-speed runtime (paper: 1.52×).
	SpeedupBestSpeed float64
	// AccuracyGain is default/best-accuracy error (paper: 2.07×).
	AccuracyGain float64
	// SpeedupBestAccuracy is the speedup of the best-accuracy row
	// (paper: 1.25–1.29×).
	SpeedupBestAccuracy float64
}

// Table1 reruns (or reuses) the Figure 4 exploration and formats the Pareto
// efficiency points as the paper's Table I.
func Table1(opts Options, dse *DSEResult) (*Table1Result, error) {
	opts = opts.withDefaults()
	if dse == nil {
		var err error
		dse, err = Fig4(opts)
		if err != nil {
			return nil, err
		}
	}
	bench := slambench.NewElasticFusionBench(slambench.CachedDataset(opts.datasetScale()))
	space := bench.Space()

	res := &Table1Result{}
	defM := dse.DefaultMetrics
	res.Rows = append(res.Rows, rowFrom("Default", bench, space, bench.DefaultConfig(),
		defM.MeanATE, defM.TotalSeconds))

	// Select up to 4 front rows: fastest, most accurate, and two evenly
	// spaced knees (the paper lists exactly this set). Only configurations
	// in the usable-accuracy band qualify — every Table I row of the paper
	// has error at or below ~the validity limit; the raw front's ultra-fast
	// garbage-accuracy extreme is not a deployable configuration.
	var front []pareto.Point
	for _, p := range dse.Run.Front {
		if p.Objs[1] < slambench.AccuracyLimit {
			front = append(front, p)
		}
	}
	picks := pickFrontRows(len(front), 4)
	for i, fi := range picks {
		p := front[fi]
		s, ok := dse.Run.ByIndex(p.ID)
		if !ok {
			continue
		}
		label := ""
		switch {
		case i == 0:
			label = "Best speed"
		case fi == picks[len(picks)-1] && i == len(picks)-1:
			label = "Best accuracy"
		}
		res.Rows = append(res.Rows, rowFrom(label, bench, space, s.Config,
			p.Objs[1], p.Objs[0]*slambench.NominalFrames))
	}

	if len(res.Rows) > 1 {
		def := res.Rows[0]
		best := res.Rows[1]
		last := res.Rows[len(res.Rows)-1]
		if best.RuntimeS > 0 {
			res.SpeedupBestSpeed = def.RuntimeS / best.RuntimeS
		}
		if last.ErrorM > 0 {
			res.AccuracyGain = def.ErrorM / last.ErrorM
		}
		if last.RuntimeS > 0 {
			res.SpeedupBestAccuracy = def.RuntimeS / last.RuntimeS
		}
	}

	rows := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = []string{r.Label, f2s(r.ErrorM), f2s(r.RuntimeS),
			f2s(r.ICP), f2s(r.Depth), f2s(r.Confidence),
			fmt.Sprintf("%d", r.SO3), fmt.Sprintf("%d", r.CloseLoops),
			fmt.Sprintf("%d", r.Reloc), fmt.Sprintf("%d", r.FastOdom),
			fmt.Sprintf("%d", r.FTFRGB)}
	}
	if err := writeCSV(opts.OutDir, "table1_elasticfusion_pareto.csv",
		[]string{"label", "error_m", "runtime_s", "icp", "depth", "confidence",
			"so3", "close_loops", "reloc", "fast_odom", "ftf_rgb"}, rows); err != nil {
		return nil, err
	}
	return res, nil
}

// pickFrontRows selects up to n indices across a front of size frontLen:
// always the two extremes, plus evenly spaced interior points.
func pickFrontRows(frontLen, n int) []int {
	if frontLen == 0 {
		return nil
	}
	if frontLen <= n {
		out := make([]int, frontLen)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i*(frontLen-1)/(n-1))
	}
	// De-duplicate (possible for tiny fronts).
	uniq := out[:0]
	seen := map[int]bool{}
	for _, v := range out {
		if !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	return uniq
}

func rowFrom(label string, bench *slambench.ElasticFusionBench, space *param.Space, cfg param.Config, errM, runtimeS float64) Table1Row {
	ec := bench.ToConfig(cfg)
	return Table1Row{
		Label:      label,
		ErrorM:     errM,
		RuntimeS:   runtimeS,
		ICP:        ec.ICPWeight,
		Depth:      ec.DepthCutoff,
		Confidence: ec.Confidence,
		SO3:        b2i(ec.SO3),
		CloseLoops: b2i(ec.OpenLoop),
		Reloc:      b2i(ec.Reloc),
		FastOdom:   b2i(ec.FastOdom),
		FTFRGB:     b2i(ec.FrameToFrameRGB),
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Render prints the table in the paper's column layout.
func (t *Table1Result) Render(w io.Writer) {
	fprintfIgnore(w, "Table I — ElasticFusion Pareto efficiency points (GTX 780 Ti)\n")
	fprintfIgnore(w, "%-14s %-9s %-10s %5s %6s %11s %4s %11s %6s %9s %7s\n",
		"", "Error(m)", "Runtime(s)", "ICP", "Depth", "Confidence", "SO3", "Close-Loops", "Reloc", "Fast-Odom", "FTF-RGB")
	for _, r := range t.Rows {
		fprintfIgnore(w, "%-14s %-9.4f %-10.1f %5.1f %6.1f %11.1f %4d %11d %6d %9d %7d\n",
			r.Label, r.ErrorM, r.RuntimeS, r.ICP, r.Depth, r.Confidence,
			r.SO3, r.CloseLoops, r.Reloc, r.FastOdom, r.FTFRGB)
	}
	fprintfIgnore(w, "best-speed speedup %.2fx (paper 1.52x); accuracy gain %.2fx (paper 2.07x); best-accuracy speedup %.2fx (paper 1.29x)\n",
		t.SpeedupBestSpeed, t.AccuracyGain, t.SpeedupBestAccuracy)
}
