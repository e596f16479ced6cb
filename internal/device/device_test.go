package device

import (
	"math"
	"strings"
	"testing"
)

func TestPricesOf(t *testing.T) {
	p := PricesOf(5, map[Kernel]float64{KernelTrack: 10})
	if p[KernelTrack] != 10 {
		t.Fatalf("listed kernel priced at %v", p[KernelTrack])
	}
	// A kernel the table does not list is priced at the default.
	if p[KernelBilateral] != 5 || p[KernelFern] != 5 {
		t.Fatalf("unlisted kernels priced at %v, %v, want the default 5", p[KernelBilateral], p[KernelFern])
	}
	if PricesOf(2, nil) != PricesOf(2, map[Kernel]float64{}) {
		t.Fatal("a nil table and an empty one differ")
	}
}

func TestSecondsPerFrame(t *testing.T) {
	m := Model{
		CoeffNs:         PricesOf(5, map[Kernel]float64{KernelTrack: 10}),
		FrameOverheadMs: 2,
	}
	// 1e9 track ops over 10 frames at 10ns: 10s/10 = 1s + 2ms.
	got := m.SecondsPerFrame(Work{KernelTrack: 1e9}, 10)
	if math.Abs(got-1.002) > 1e-9 {
		t.Fatalf("SecondsPerFrame = %v", got)
	}
	// A kernel the platform does not list costs the default 5ns.
	got = m.SecondsPerFrame(Work{KernelRaycast: 1e9}, 10)
	if math.Abs(got-0.502) > 1e-9 {
		t.Fatalf("default-priced = %v", got)
	}
	if m.SecondsPerFrame(Work{KernelTrack: 1}, 0) != 0 {
		t.Fatal("zero frames should give 0")
	}
}

func TestAveragePower(t *testing.T) {
	m := Model{
		CoeffNs:      PricesOf(10, nil),
		PowerStaticW: 1,
		EnergyNJ:     PricesOf(20, nil),
	}
	// 1e9 ops over 1 frame: time 10s, energy 20J → 1 + 2 = 3W.
	got := m.AveragePowerW(Work{KernelTrack: 1e9}, 1)
	if math.Abs(got-3) > 1e-9 {
		t.Fatalf("AveragePowerW = %v", got)
	}
	if m.AveragePowerW(Work{}, 0) != 1 {
		t.Fatal("idle power should be static")
	}
}

// TestSumsAreOrderStable: float addition is not associative, so the order a
// cost is summed in decides its last bit, and with it one configuration's
// runtime objective and a KFusion front's bytes. The order is the Kernel
// order; the bits were recorded when Work was a map summed in sorted
// kernel-name order.
func TestSumsAreOrderStable(t *testing.T) {
	var w Work
	ops := 1.0
	for k := range w {
		ops *= math.Pi // magnitudes spread over seven decades, none a round number
		w[k] = ops * 1e3
	}
	wants := [4][2]uint64{ // in Platforms() order
		{0x4032905b8bdfe199, 0x3ff1b07972e64491},
		{0x402aac5f1ac66290, 0x3ffa4d77043c1e13},
		{0x400c290db89f5b70, 0x404a0db426d3d66e},
		{0x40056a2ab7f30ac0, 0x40417fc2cb21efed},
	}
	for i, m := range Platforms() {
		want := wants[i]
		sec, watts := math.Float64bits(m.SecondsPerFrame(w, 10)), math.Float64bits(m.AveragePowerW(w, 10))
		if sec != want[0] || watts != want[1] {
			t.Errorf("%s: (sec, watts) bits = (%#x, %#x), want (%#x, %#x)", m.Name, sec, watts, want[0], want[1])
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
				t.Fatalf("%s: kernel %d coeff %v", p.Name, k, c)
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
		if a[i].CoeffNs != b[i].CoeffNs {
			t.Fatal("coefficients not deterministic")
		}
	}
	// The Figure 5 population itself, not only its repeatability: the RNG
	// stream is consumed per device and per kernel in a fixed order.
	for _, want := range []struct {
		device                       int
		defaultNs, overhead, integNs uint64
	}{
		{1, 0x401e583dcd05d267, 0x401d9bfe307b742b, 0x4031c8be33b349db},
		{42, 0x40149bd63b725fc1, 0x4016ff62ae7188a3, 0x4026e8f320c58de7},
		{83, 0x401e42dc01e090fc, 0x401b8487588da7c4, 0x4043bf147d0b3088},
	} {
		d := a[want.device-1]
		got := [3]uint64{math.Float64bits(d.DefaultNs), math.Float64bits(d.FrameOverheadMs), math.Float64bits(d.CoeffNs[KernelIntegrate])}
		if got != [3]uint64{want.defaultNs, want.overhead, want.integNs} {
			t.Errorf("%s: (DefaultNs, FrameOverheadMs, CoeffNs[integrate]) bits = %#x, want %#x", d.Name, got, want)
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
				t.Fatalf("%s: kernel %d coeff %v", d.Name, k, c)
			}
		}
		if d.FrameOverheadMs <= 0 {
			t.Fatalf("%s: overhead %v", d.Name, d.FrameOverheadMs)
		}
	}
}
