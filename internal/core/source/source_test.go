package source

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core/fd"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/mpi"
)

func integrate(f STF, t0, t1, dt float64) float64 {
	var s float64
	for t := t0; t < t1; t += dt {
		s += f(t) * dt
	}
	return s
}

func TestSTFUnitArea(t *testing.T) {
	cases := []struct {
		name string
		f    STF
	}{
		{"gaussian", GaussianPulse(5, 0.5)},
		{"triangle", Triangle(1, 2)},
	}
	for _, c := range cases {
		if got := integrate(c.f, 0, 30, 1e-4); math.Abs(got-1) > 5e-3 {
			t.Errorf("%s: integral = %g, want 1", c.name, got)
		}
	}
}

func TestSTFNonNegativeAndCausal(t *testing.T) {
	tr := Triangle(1, 2)
	if tr(0.9) != 0 || tr(3.1) != 0 {
		t.Error("triangle support wrong")
	}
	g := GaussianPulse(5, 0.5)
	for x := 0.0; x < 10; x += 0.01 {
		if g(x) < 0 || tr(x) < 0 {
			t.Fatal("pulse went negative")
		}
	}
}

func TestSampleAndRateAt(t *testing.T) {
	p := PointSource{GI: 1, GJ: 2, GK: 3, M0: 2e18, Tensor: StrikeSlipXY, STF: Triangle(0.1, 0.4)}
	s := p.Sample(0.01, 100)
	if len(s.Rate) != 100 {
		t.Fatalf("sample count %d", len(s.Rate))
	}
	// Interpolation midway between two samples.
	mid := s.RateAt(0.255)
	lo, hi := s.RateAt(0.25), s.RateAt(0.26)
	if mid[3] < math.Min(lo[3], hi[3]) || mid[3] > math.Max(lo[3], hi[3]) {
		t.Errorf("interpolated rate %g outside [%g,%g]", mid[3], lo[3], hi[3])
	}
	// Outside the window: zero.
	if r := s.RateAt(-1); r[3] != 0 {
		t.Error("negative time not zero")
	}
	if r := s.RateAt(10); r[3] != 0 {
		t.Error("past-end time not zero")
	}
	// Only the xy component is non-zero for strike-slip.
	at := s.RateAt(0.3)
	for c, v := range at {
		if c != 3 && v != 0 {
			t.Errorf("component %d = %g, want 0", c, v)
		}
	}
}

func TestMomentRecovery(t *testing.T) {
	m0 := 1.5e19
	p := PointSource{M0: m0, Tensor: StrikeSlipXY, STF: Triangle(0.2, 1.0)}
	s := p.Sample(0.005, 400)
	if got := s.Moment(); math.Abs(got-m0)/m0 > 0.01 {
		t.Errorf("moment = %g, want %g", got, m0)
	}
}

func TestMwM0RoundTrip(t *testing.T) {
	prop := func(mw8 uint8) bool {
		mw := 4 + float64(mw8%50)/10 // 4.0 .. 8.9
		return math.Abs(M02Mw(Mw2M0(mw))-mw) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	// Known anchor: Mw 8.0 ~ 1.12e21 N*m (the paper quotes 1.0e21 for M8).
	if m0 := Mw2M0(8.0); m0 < 1.0e21 || m0 > 1.3e21 {
		t.Errorf("Mw2M0(8) = %g", m0)
	}
}

func TestLocalizeAndInject(t *testing.T) {
	g := grid.Dims{NX: 16, NY: 8, NZ: 8}
	dc, err := decomp.New(g, mpi.NewCart(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	h := 100.0
	srcs := []SampledSource{
		{GI: 2, GJ: 4, GK: 4, Dt: 0.1, Rate: [][6]float32{{0, 0, 0, 10, 0, 0}, {0, 0, 0, 10, 0, 0}}},
		{GI: 12, GJ: 4, GK: 4, Dt: 0.1, Rate: [][6]float32{{0, 0, 0, 20, 0, 0}, {0, 0, 0, 20, 0, 0}}},
	}
	set0 := Localize(srcs, dc.SubFor(0), h)
	set1 := Localize(srcs, dc.SubFor(1), h)
	if set0.Count() != 1 || set1.Count() != 1 {
		t.Fatalf("localization split wrong: %d/%d", set0.Count(), set1.Count())
	}
	s := fd.NewState(dc.SubFor(0).Local)
	dt := 0.05
	set0.Inject(s, dt, 0.1)
	want := float32(-10 * dt / (h * h * h))
	if got := s.XY.At(2, 4, 4); math.Abs(float64(got-want)) > 1e-12 {
		t.Errorf("injected sxy = %g, want %g", got, want)
	}
	if s.XX.At(2, 4, 4) != 0 {
		t.Error("xx should be untouched for strike-slip")
	}
	// Rank 1's source is at local index 12-8=4.
	s1 := fd.NewState(dc.SubFor(1).Local)
	set1.Inject(s1, dt, 0.1)
	if s1.XY.At(4, 4, 4) == 0 {
		t.Error("rank-1 source not injected at local index")
	}
}

// InjectRegion reports the hull of the nodes it fed a nonzero rate: nothing
// before a source's onset or after its last sample, the node while it is
// live, and the hull of all that are — of the side of box it was asked for.
func TestInjectRegionReportsLiveNodes(t *testing.T) {
	g := grid.Dims{NX: 16, NY: 8, NZ: 8}
	dc, err := decomp.New(g, mpi.NewCart(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Live on [0.1, 0.3]; live on [0.3, 0.5] with a −0 in its silent samples
	// (a zero-mean wavelet times a zero tensor entry samples to −0); never.
	negZero := float32(math.Copysign(0, -1))
	srcs := []SampledSource{
		{GI: 2, GJ: 4, GK: 4, Dt: 0.1, Rate: [][6]float32{{}, {3: 10}, {3: 10}, {3: 10}, {}, {}, {}}},
		{GI: 12, GJ: 1, GK: 6, Dt: 0.1, Rate: [][6]float32{{1: negZero}, {}, {1: negZero}, {0: 5}, {0: 5}, {0: 5}, {}}},
		{GI: 7, GJ: 7, GK: 0, Dt: 0.1, Rate: [][6]float32{{}, {}, {}, {}, {}, {}, {}}},
	}
	set := Localize(srcs, dc.SubFor(0), 100)
	s := fd.NewState(g)
	node := func(i, j, k int) fd.Box { return fd.Box{I0: i, I1: i + 1, J0: j, J1: j + 1, K0: k, K1: k + 1} }
	left := fd.Box{I1: 8, J1: 8, K1: 8}
	for _, c := range []struct {
		t      float64
		box    fd.Box
		inside bool
		want   fd.Box
	}{
		{t: 0, want: fd.Box{}},
		{t: 0.05, want: node(2, 4, 4)}, // interpolating toward the first live sample
		{t: 0.2, want: node(2, 4, 4)},
		{t: 0.3, want: node(2, 4, 4).Hull(node(12, 1, 6))},
		{t: 0.3, box: left, inside: true, want: node(2, 4, 4)},
		{t: 0.3, box: left, inside: false, want: node(12, 1, 6)},
		{t: 0.45, want: node(12, 1, 6)},
		{t: 0.65, want: fd.Box{}},
		{t: 9, want: fd.Box{}},
	} {
		if got := set.InjectRegion(s, 0.01, c.t, c.box, c.inside); got != c.want {
			t.Errorf("t = %g, box %v inside %v: fed %v, want %v", c.t, c.box, c.inside, got, c.want)
		}
	}
	if s.XX.At(7, 7, 0) != 0 || math.Signbit(float64(s.YY.At(12, 1, 6))) {
		t.Error("a silent rate changed a stored zero")
	}
}

func TestHaskellValidate(t *testing.T) {
	good := HaskellSpec{GJ: 4, I0: 2, I1: 20, K0: 0, K1: 10, HypoI: 5, HypoK: 5,
		H: 100, Mw: 7, Vr: 2800, RiseTime: 1, Mu: 3e10, Dt: 0.01, NT: 100}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := good
	bad.HypoI = 1
	if bad.Validate() == nil {
		t.Error("hypocenter outside fault accepted")
	}
	bad = good
	bad.I1 = 2
	if bad.Validate() == nil {
		t.Error("empty fault accepted")
	}
	bad = good
	bad.Vr = 0
	if bad.Validate() == nil {
		t.Error("zero rupture speed accepted")
	}
}

func TestHaskellGenerateMomentAndTiming(t *testing.T) {
	spec := HaskellSpec{GJ: 4, I0: 0, I1: 30, K0: 0, K1: 12, HypoI: 5, HypoK: 6,
		H: 200, Mw: 7.0, Vr: 2800, RiseTime: 0.8, Mu: 3e10, Dt: 0.02, NT: 600, TaperCells: 3}
	srcs, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) == 0 {
		t.Fatal("no sources generated")
	}
	// Total moment: sum of per-subfault scalar moments must equal Mw (all
	// subfaults share the same mechanism so moments add linearly).
	var total float64
	for i := range srcs {
		total += srcs[i].Moment()
	}
	want := Mw2M0(7.0)
	if math.Abs(total-want)/want > 0.02 {
		t.Errorf("total moment %g, want %g", total, want)
	}
	// Rupture causality: onset time grows with distance from hypocenter.
	onset := func(s *SampledSource) float64 {
		for n := range s.Rate {
			if s.Rate[n][3] != 0 {
				return float64(n) * s.Dt
			}
		}
		return math.Inf(1)
	}
	var near, far *SampledSource
	for i := range srcs {
		if srcs[i].GI == 5 && srcs[i].GK == 6 {
			near = &srcs[i]
		}
		if srcs[i].GI == 29 && srcs[i].GK == 6 {
			far = &srcs[i]
		}
	}
	if near == nil || far == nil {
		t.Fatal("expected subfaults missing")
	}
	tn, tf := onset(near), onset(far)
	if !(tn < tf) {
		t.Errorf("onset near=%g, far=%g: rupture not causal", tn, tf)
	}
	// Far subfault onset ~ distance/Vr.
	wantT := 24 * 200 / 2800.0
	if math.Abs(tf-wantT) > 0.3 {
		t.Errorf("far onset %g, want ~%g", tf, wantT)
	}
}

func TestEdgeTaper(t *testing.T) {
	if edgeTaper(0, 10, 0) != 1 {
		t.Error("no taper should be 1")
	}
	if edgeTaper(0, 10, 3) >= edgeTaper(1, 10, 3) {
	} else if edgeTaper(0, 10, 3) >= 1 {
		t.Error("edge not tapered")
	}
	if edgeTaper(5, 11, 3) != 1 {
		t.Error("center should be untapered")
	}
	// Symmetry.
	if math.Abs(edgeTaper(1, 20, 4)-edgeTaper(18, 20, 4)) > 1e-12 {
		t.Error("taper not symmetric")
	}
}

func TestLowPass4RemovesHighFreq(t *testing.T) {
	dt := 0.005
	n := 2000
	lo := make([]float32, n)
	mixed := make([]float32, n)
	for i := 0; i < n; i++ {
		tt := float64(i) * dt
		l := math.Sin(2 * math.Pi * 0.5 * tt) // 0.5 Hz: passband
		h := math.Sin(2 * math.Pi * 20 * tt)  // 20 Hz: stopband
		lo[i] = float32(l)
		mixed[i] = float32(l + h)
	}
	LowPass4(mixed, dt, 2.0)
	LowPass4(lo, dt, 2.0) // filter the reference too, cancelling phase delay
	// After settle-in, the filtered mixed signal should track the low
	// component closely: the 20 Hz part is ~80 dB down for 4th order at
	// 10x the corner.
	var maxDiff float64
	for i := n / 4; i < n; i++ {
		// Compare against the also-filtered low signal to cancel passband
		// phase delay.
		d := math.Abs(float64(mixed[i]) - float64(lo[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	// Phase lag at 0.5 Hz with fc=2 Hz is small but non-zero; allow 20%.
	if maxDiff > 0.2 {
		t.Errorf("low-pass output deviates %g from passband signal", maxDiff)
	}
	// Stopband: filter a pure 20 Hz tone; residual must be tiny.
	hi := make([]float32, n)
	for i := range hi {
		hi[i] = float32(math.Sin(2 * math.Pi * 20 * float64(i) * dt))
	}
	LowPass4(hi, dt, 2.0)
	var m float64
	for i := n / 4; i < n; i++ {
		if v := math.Abs(float64(hi[i])); v > m {
			m = v
		}
	}
	if m > 1e-3 {
		t.Errorf("stopband residual %g, want < 1e-3", m)
	}
}

func TestResample(t *testing.T) {
	in := []float32{0, 1, 2, 3}
	out := Resample(in, 0.1, 0.05, 7)
	want := []float32{0, 0.5, 1, 1.5, 2, 2.5, 3}
	for i := range want {
		if math.Abs(float64(out[i]-want[i])) > 1e-6 {
			t.Fatalf("out[%d] = %g, want %g", i, out[i], want[i])
		}
	}
	// Downsample + beyond-end behaviour.
	out2 := Resample(in, 0.1, 0.2, 4)
	if out2[0] != 0 || out2[1] != 2 {
		t.Errorf("downsample wrong: %v", out2)
	}
	if out2[3] != 0 {
		t.Errorf("beyond-end should be 0, got %g", out2[3])
	}
}

func TestTransferDynamic(t *testing.T) {
	// A smooth slip-rate pulse transfers to a moment-rate history whose
	// integral is mu*area*totalSlip.
	dtIn := 0.002
	n := 1000
	slip := make([]float32, n)
	var totalSlip float64
	for i := range slip {
		tt := float64(i) * dtIn
		v := 2.0 * math.Exp(-(tt-0.5)*(tt-0.5)/(2*0.01))
		slip[i] = float32(v)
		totalSlip += v * dtIn
	}
	mu, area := 3.3e10, 100.0*100.0
	out := TransferDynamic(3, 4, 5, slip, mu, area, dtIn, 0.004, 50, 500)
	if out.GI != 3 || out.GJ != 4 || out.GK != 5 {
		t.Fatal("indices not preserved")
	}
	var m float64
	for _, r := range out.Rate {
		m += float64(r[3]) * out.Dt
	}
	want := mu * area * totalSlip
	if math.Abs(m-want)/want > 0.02 {
		t.Errorf("transferred moment %g, want %g", m, want)
	}
}
