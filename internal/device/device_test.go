package device

import (
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestWorkHelpers(t *testing.T) {
	w := Work{"a": 1, "b": 2}
	w.Add(Work{"b": 3, "c": 4})
	if w["a"] != 1 || w["b"] != 5 || w["c"] != 4 {
		t.Fatalf("Add: %v", w)
	}
	w.Scale(2)
	if w.Total() != 20 {
		t.Fatalf("Total after scale = %v", w.Total())
	}
}

func TestSecondsPerFrame(t *testing.T) {
	m := Model{
		CoeffNs:         map[string]float64{"k": 10},
		DefaultNs:       5,
		FrameOverheadMs: 2,
	}
	// 1e9 ops of kernel k over 10 frames at 10ns: 10s/10 = 1s + 2ms.
	got := m.SecondsPerFrame(Work{"k": 1e9}, 10)
	if math.Abs(got-1.002) > 1e-9 {
		t.Fatalf("SecondsPerFrame = %v", got)
	}
	// Unknown kernel uses DefaultNs.
	got = m.SecondsPerFrame(Work{"other": 1e9}, 10)
	if math.Abs(got-0.502) > 1e-9 {
		t.Fatalf("default-priced = %v", got)
	}
	if m.SecondsPerFrame(Work{"k": 1}, 0) != 0 {
		t.Fatal("zero frames should give 0")
	}
}

func TestAveragePower(t *testing.T) {
	m := Model{
		CoeffNs:      map[string]float64{"k": 10},
		DefaultNs:    10,
		PowerStaticW: 1,
		EnergyNJ:     map[string]float64{"k": 20},
		DefaultNJ:    20,
	}
	// 1e9 ops over 1 frame: time 10s, energy 20J → 1 + 2 = 3W.
	got := m.AveragePowerW(Work{"k": 1e9}, 1)
	if math.Abs(got-3) > 1e-9 {
		t.Fatalf("AveragePowerW = %v", got)
	}
	if m.AveragePowerW(Work{}, 0) != 1 {
		t.Fatal("idle power should be static")
	}
}

// TestSumsAreOrderStable: a Work is a map, and a sum taken in map iteration
// order differs in its last bit from call to call — enough to make one
// configuration's runtime objective, and so a KFusion front's bytes, differ
// between two evaluations.
func TestSumsAreOrderStable(t *testing.T) {
	m := ODROIDXU3()
	w := Work{}
	ops := 1.0
	for _, k := range slices.Sorted(maps.Keys(m.CoeffNs)) {
		ops *= math.Pi // magnitudes spread over seven decades, none a round number
		w[k] = ops * 1e3
	}
	total, sec, watts := w.Total(), m.SecondsPerFrame(w, 10), m.AveragePowerW(w, 10)
	for i := 0; i < 200; i++ {
		if a, b, c := w.Total(), m.SecondsPerFrame(w, 10), m.AveragePowerW(w, 10); a != total || b != sec || c != watts {
			t.Fatalf("evaluation %d: (%v, %v, %v) != (%v, %v, %v)", i, a, b, c, total, sec, watts)
		}
	}
}

func TestPlatformsWellFormed(t *testing.T) {
	for _, p := range Platforms() {
		if p.Name == "" || p.Class == "" {
			t.Fatalf("platform missing identity: %+v", p)
		}
		if p.DefaultNs <= 0 {
			t.Fatalf("%s: DefaultNs = %v", p.Name, p.DefaultNs)
		}
		for k, c := range p.CoeffNs {
			if c <= 0 {
				t.Fatalf("%s: kernel %s coeff %v", p.Name, k, c)
			}
		}
		if !strings.Contains(p.String(), p.Name) {
			t.Fatal("String() should include the name")
		}
	}
}

func TestByName(t *testing.T) {
	m, ok := ByName("ODROID-XU3")
	if !ok || m.Name != "ODROID-XU3" {
		t.Fatal("ByName failed for ODROID-XU3")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown platform found")
	}
}

func TestGTXFasterThanEmbedded(t *testing.T) {
	w := Work{KernelICP: 1e8, KernelRender: 1e8}
	gtx := GTX780Ti().SecondsPerFrame(w, 1)
	odroid := ODROIDXU3().SecondsPerFrame(w, 1)
	if gtx >= odroid {
		t.Fatalf("GTX (%v) should be faster than ODROID (%v)", gtx, odroid)
	}
}

func TestMarketDevicesDeterministic(t *testing.T) {
	a := MarketDevices(83, 1)
	b := MarketDevices(83, 1)
	if len(a) != 83 || len(b) != 83 {
		t.Fatalf("want 83 devices, got %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("market generation not deterministic")
		}
		for k := range a[i].CoeffNs {
			if a[i].CoeffNs[k] != b[i].CoeffNs[k] {
				t.Fatal("coefficients not deterministic")
			}
		}
	}
	c := MarketDevices(83, 2)
	same := true
	for i := range a {
		if a[i].Name != c[i].Name {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different populations")
	}
}

func TestMarketDevicesHeterogeneous(t *testing.T) {
	devs := MarketDevices(83, 1)
	// Per-kernel cost ratios must vary across the population — the
	// mechanism behind Figure 5's 2×–12× speedup spread.
	ratios := make([]float64, 0, len(devs))
	for _, d := range devs {
		ratios = append(ratios, d.CoeffNs[KernelIntegrate]/d.CoeffNs[KernelTrack])
	}
	lo, hi := ratios[0], ratios[0]
	for _, r := range ratios {
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	if hi/lo < 2 {
		t.Fatalf("kernel cost ratios too homogeneous: [%v, %v]", lo, hi)
	}
	// Several SoC families must appear.
	socs := map[string]bool{}
	for _, d := range devs {
		socs[d.SoC] = true
		if d.Class == "" || d.Name == "" {
			t.Fatal("market device missing identity")
		}
	}
	if len(socs) < 4 {
		t.Fatalf("only %d SoC families in the market", len(socs))
	}
}

func TestMarketDevicesPositiveCoeffs(t *testing.T) {
	for _, d := range MarketDevices(200, 7) {
		for k, c := range d.CoeffNs {
			if c <= 0 || math.IsNaN(c) {
				t.Fatalf("%s: kernel %s coeff %v", d.Name, k, c)
			}
		}
		if d.FrameOverheadMs <= 0 {
			t.Fatalf("%s: overhead %v", d.Name, d.FrameOverheadMs)
		}
	}
}
