package quality

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/param"
)

func sweepProblemFixture(t *testing.T) catalog.Problem {
	t.Helper()
	space := param.MustSpace(
		param.Grid("a", 0, 4, 40),
		param.Grid("b", 0, 4, 40),
	)
	eval := core.EvaluatorFunc(func(cfg param.Config) []float64 {
		a, b := cfg[0], cfg[1]
		return []float64{a + 0.5*math.Sin(3*b) + 1.5, b + 0.5*math.Cos(2*a) + 1.5}
	})
	return catalog.Problem{Name: "toy", Space: space, Eval: eval, Objectives: []string{"f0", "f1"}}
}

func TestSweepShapeAndDeterminism(t *testing.T) {
	problems := []catalog.Problem{sweepProblemFixture(t)}
	strategies := []Strategy{
		{Name: "default"},
		{Name: "acquisition", Strategy: core.Strategy{Selector: "acquisition"}},
	}
	budgets := []int{40, 20} // deliberately unsorted
	seeds := []int64{1, 2}

	r1, err := Sweep(context.Background(), problems, strategies, budgets, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Curves) != 2 {
		t.Fatalf("got %d curves", len(r1.Curves))
	}
	if got := r1.Budgets; got[0] != 20 || got[1] != 40 {
		t.Fatalf("budgets not sorted: %v", got)
	}
	ref := r1.Reference["toy"]
	if len(ref) != 2 {
		t.Fatalf("reference = %v", ref)
	}
	for _, c := range r1.Curves {
		if len(c.Points) != 2 {
			t.Fatalf("curve %s/%s has %d points", c.Problem, c.Strategy, len(c.Points))
		}
		for _, p := range c.Points {
			if !(p.Hypervolume > 0) {
				t.Fatalf("curve %s/%s budget %d hypervolume %v", c.Problem, c.Strategy, p.Budget, p.Hypervolume)
			}
			if p.Samples < float64(p.Budget)/2 {
				t.Fatalf("budget %d measured only %v samples", p.Budget, p.Samples)
			}
		}
		// Against the shared reference, more budget can only grow the
		// union front's quality on this smooth problem.
		if c.Points[1].Hypervolume < c.Points[0].Hypervolume*0.99 {
			t.Fatalf("curve %s/%s shrinks with budget: %+v", c.Problem, c.Strategy, c.Points)
		}
	}

	r2, err := Sweep(context.Background(), problems, strategies, budgets, seeds)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if string(j1) != string(j2) {
		t.Fatal("sweep is not deterministic for fixed inputs")
	}
}

// twoCurveReport builds a report with a default and a candidate curve on
// one problem for the gate/check tests.
func twoCurveReport(defHV, candHV []float64, ref []float64) *Report {
	mk := func(name string, hv []float64) Curve {
		c := Curve{Problem: "p", Strategy: name}
		for i, v := range hv {
			c.Points = append(c.Points, Point{Budget: (i + 1) * 10, Hypervolume: v})
		}
		return c
	}
	return &Report{
		Budgets:   []int{10, 20},
		Reference: map[string][]float64{"p": ref},
		Curves:    []Curve{mk("default", defHV), mk("cand", candHV)},
	}
}

func TestGate(t *testing.T) {
	r := twoCurveReport([]float64{100, 110}, []float64{101, 109}, []float64{1, 1})
	if err := r.Gate("p", "cand", "default", 0.02); err != nil {
		t.Fatalf("within-tolerance gate failed: %v", err)
	}
	if err := r.Gate("p", "cand", "default", 0); err == nil {
		t.Fatal("zero-tolerance gate accepted 109 < 110")
	}
	if err := r.Gate("p", "missing", "default", 0.02); err == nil {
		t.Fatal("gate accepted a missing strategy")
	}
}

func TestCheck(t *testing.T) {
	base := twoCurveReport([]float64{100, 110}, []float64{100, 110}, []float64{1, 1})
	cur := twoCurveReport([]float64{99.5, 110}, []float64{0, 0}, []float64{1, 1})
	if err := Check(cur, base, "default", 0.02); err != nil {
		t.Fatalf("within-tolerance check failed: %v", err)
	}
	cur = twoCurveReport([]float64{90, 110}, []float64{0, 0}, []float64{1, 1})
	if err := Check(cur, base, "default", 0.02); err == nil {
		t.Fatal("check accepted a 10% regression")
	}
	// A drifted reference point means the hypervolumes are incomparable.
	cur = twoCurveReport([]float64{100, 110}, []float64{0, 0}, []float64{2, 2})
	if err := Check(cur, base, "default", 0.02); err == nil {
		t.Fatal("check compared against a drifted reference")
	}
	if err := Check(cur, base, "nonexistent", 0.02); err == nil {
		t.Fatal("check passed with no curves to compare")
	}
}
