package core

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/param"
)

// runDigest hashes what a seeded run decides: every sample, front point and
// bootstrap front point (fingerprintRun), then each round's predicted front
// size and batch size.
func runDigest(res *Result) string {
	h := sha256.New()
	h.Write([]byte(fingerprintRun(res)))
	for _, it := range res.Iterations {
		fmt.Fprintf(h, "i %d %d\n", it.PredictedFrontSize, it.NewSamples)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// threeObj is a three-objective evaluator over benchSpace, so a run filters
// its fronts with frontKD instead of the 2-D sweep.
var threeObj = EvaluatorFunc(func(cfg param.Config) []float64 {
	a, b, c := cfg[0], cfg[1], cfg[2]
	return []float64{a + 1, b + 1, c + a*b*0.1}
})

// runShape is one seeded run whose digest was recorded when the engine still
// kept a second, pre-incremental loop (training matrix re-encoded every
// round, re-sorting tree builder, row-by-row Forest.Predict over a
// re-encoded pool); both loops gave each digest. A run that reproduces it
// decides what that loop decided, bit for bit.
type runShape struct {
	name    string
	space   *param.Space
	eval    Evaluator
	opts    Options
	workers []int // 0: the default
	want    string
}

func checkRunDigests(t *testing.T, shapes []runShape) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests were recorded on amd64")
	}
	for _, c := range shapes {
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range c.workers {
				opts := c.opts
				opts.Workers = workers
				res, err := Run(c.space, c.eval, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Samples) <= opts.RandomSamples {
					t.Fatal("the run never left the bootstrap; the pool was not exercised")
				}
				if got := runDigest(res); got != c.want {
					t.Errorf("workers=%d: digest %s, want %s", workers, got, c.want)
				}
			}
		})
	}
}

// digestRun is the run budget of the bench and constrained shapes.
func digestRun(objectives, poolCap int, seed int64) Options {
	return Options{Objectives: objectives, RandomSamples: 40, MaxIterations: 3, MaxBatch: 30, PoolCap: poolCap, Seed: seed}
}

// TestIncrementalMatchesLegacyPath pins whole seeded runs over benchSpace to
// the legacy loop's digests, on the enumerable and drawn pools, with two and
// three objectives (frontKD instead of the 2-D sweep), and with the
// non-default strategies.
func TestIncrementalMatchesLegacyPath(t *testing.T) {
	bench := benchSpace(t)
	strategy := func(o Options, sampler string) Options {
		o.Strategy = Strategy{Sampler: sampler, Feasibility: true, Selector: "acquisition"}
		o.probes = 64
		return o
	}
	checkRunDigests(t, []runShape{
		{"2obj-enumerable", bench, benchEval(bench), digestRun(2, 0, 23), []int{0},
			"f440b2fb66870f2ad255f196255e07fff3488c9ca2506b9122537314592d09f6"},
		{"2obj-subsampled", bench, benchEval(bench), digestRun(2, 100, 23), []int{0},
			"f6957fb4b06a76a853393e9c111aa29a44a2c59907cb2c167bb8ac244b7d92b9"},
		{"3obj-subsampled", bench, threeObj, digestRun(3, 400, 23), []int{0},
			"c2ebf6fed3697d55cd588f726784f4fad33112133f0d40fb548a360d15bc81d2"},
		// On an unconstrained whole-grid pool the non-default strategy picks
		// the batches the default one picks: the same digest as the first row.
		{"2obj-enumerable-strategy", bench, benchEval(bench), strategy(digestRun(2, 0, 23), "prior"), []int{0},
			"f440b2fb66870f2ad255f196255e07fff3488c9ca2506b9122537314592d09f6"},
		{"2obj-subsampled-strategy", bench, benchEval(bench), strategy(digestRun(2, 100, 23), "prior"), []int{0},
			"1d80af1ea0d8d947a782e8e65ad4d93f2f8c1e59ebb2f5f0296b2b59231b508d"},
		{"3obj-subsampled-strategy", bench, threeObj, strategy(digestRun(3, 400, 23), "uniform"), []int{0},
			"a27baa3fb819991d179f611386c892288a00e235c53406f38a0892df9c44d459"},
	})
}

// TestConstrainedLegacyIncrementalEquivalence pins seeded runs over a
// constrained space to the legacy loop's digests, on the enumerable and the
// drawn pool.
func TestConstrainedLegacyIncrementalEquivalence(t *testing.T) {
	constrained := constrainedSpace(t)
	checkRunDigests(t, []runShape{
		{"enumerable", constrained, benchEval(constrained), digestRun(2, 0, 31), []int{0},
			"6eedd9b07525ecabbab929d91857bb96c6af8a28ce41ed5a474c2602ff5c589e"},
		{"subsampled", constrained, benchEval(constrained), digestRun(2, 200, 31), []int{0},
			"6f40be62a36c39f4bc3a6e05bd3e64c611e503239930f7c4b2d8e5d078617691"},
	})
}

// TestGridPoolMatchesLegacyPath pins seeded runs over the awkward grid
// (Boolean first, log-scaled, out-of-order and one-level parameters) to the
// legacy loop's digests at workers 1-4, predicted through the grid kernel
// when the space fits under PoolCap and through the drawn-cells kernel when
// it does not.
func TestGridPoolMatchesLegacyPath(t *testing.T) {
	constrained := awkwardSpace()
	constrained.SetConstraint(func(cfg param.Config) bool {
		return !(cfg[0] == 1 && cfg[1] > 3) && cfg[3] != 4
	})
	awkward := func(poolCap int) Options {
		return Options{Objectives: 2, RandomSamples: 40, MaxIterations: 3, MaxBatch: 20, PoolCap: poolCap, Seed: 11}
	}
	eval := EvaluatorFunc(awkwardEval)
	workers := []int{1, 2, 3, 4}
	checkRunDigests(t, []runShape{
		{"boolean-first", awkwardSpace(), eval, awkward(0), workers,
			"cc08bc87d4c80d24843e9cd4deab9968fe7aa3c62677be5541270b92cfd6a007"},
		{"boolean-first-constrained", constrained, eval, awkward(0), workers,
			"7a3fe0ac5c337195f900150162cde26995e11eb35e378240fe413b616202ba62"},
		{"boolean-first-drawn", awkwardSpace(), eval, awkward(150), workers,
			"f1d7b9f8156965b3e547e6b034db2b0d2be2ae9637c05f1bcef805727aebb276"},
		{"boolean-first-constrained-drawn", constrained, eval, awkward(150), workers,
			"4a676258bda5ee9f09cecd38aa21f0df0ab5eb9eafad35d66e098aac38c42790"},
	})
}
