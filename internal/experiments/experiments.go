// Package experiments regenerates every table and figure of the paper's
// evaluation section (§IV): the Fig. 1 response surface, the Fig. 3/4
// design-space explorations, the Fig. 5 crowd-sourcing study, Table I, and
// the §IV-D cross-device transfer analysis. Each generator returns a
// structured result and can write CSV files and ASCII plots.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/journal"
)

// randFor returns a deterministic RNG for the given seed.
func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Scale selects the experiment budget.
type Scale string

const (
	// ScaleTest is a minutes-free budget for unit tests.
	ScaleTest Scale = "test"
	// ScaleQuick regenerates figure shapes in minutes (default).
	ScaleQuick Scale = "quick"
	// ScaleFull approximates the paper's sample budgets (hours).
	ScaleFull Scale = "full"
)

// Options configures a generator run. Generators write their progress
// lines to the process logger.
type Options struct {
	// Scale selects the budget (default ScaleQuick).
	Scale Scale
	// OutDir, when non-empty, receives CSV outputs.
	OutDir string
	// Seed drives all sampling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale == "" {
		o.Scale = ScaleQuick
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// datasetScale maps the experiment scale to the dataset cache key: the
// quick scale explores the halved sequence (as the paper itself does for
// DSE, §III-A); the full scale uses the reference dataset.
func (o Options) datasetScale() string {
	switch o.Scale {
	case ScaleTest:
		return "test"
	case ScaleFull:
		return "full"
	default:
		return "dse"
	}
}

// dseBudget returns HyperMapper options for the scale (§IV-C: 3,000 random
// samples and ≈6 AL iterations of 100–300 evaluations for KFusion; 2,400 +
// 999 for ElasticFusion).
func (o Options) dseBudget(ef bool) core.Options {
	var opts core.Options
	switch o.Scale {
	case ScaleTest:
		opts = core.Options{RandomSamples: 16, MaxIterations: 1, MaxBatch: 8, PoolCap: 2000}
	case ScaleFull:
		if ef {
			opts = core.Options{RandomSamples: 2400, MaxIterations: 6, MaxBatch: 300, PoolCap: 442368}
		} else {
			opts = core.Options{RandomSamples: 3000, MaxIterations: 6, MaxBatch: 300, PoolCap: 400000}
		}
	default: // quick: one budget for both pipelines
		opts = core.Options{RandomSamples: 120, MaxIterations: 3, MaxBatch: 60, PoolCap: 60000}
	}
	opts.Seed = o.Seed
	opts.Forest = forest.Options{Trees: 24}
	return opts
}

// writeCSV writes rows to dir/name atomically, creating the directory as
// needed. It is a no-op when dir is empty.
func writeCSV(dir, name string, header []string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return journal.WriteFileAtomic(filepath.Join(dir, name), func(out io.Writer) error {
		w := csv.NewWriter(out)
		if err := w.Write(header); err != nil {
			return err
		}
		if err := w.WriteAll(rows); err != nil {
			return err
		}
		w.Flush()
		return w.Error()
	})
}

func f2s(v float64) string { return fmt.Sprintf("%g", v) }

// fprintfIgnore writes formatted output, ignoring errors (terminal
// rendering only).
func fprintfIgnore(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}
