package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBA08Behaviour(t *testing.T) {
	g := BooreAtkinson2008{}
	// Distance decay: monotone beyond a few km.
	prev := math.Inf(1)
	for _, r := range []float64{1, 5, 10, 20, 50, 100, 200} {
		v := g.MedianPGV(8.0, r, 760)
		if v >= prev {
			t.Fatalf("PGV not decaying at %g km: %g >= %g", r, v, prev)
		}
		prev = v
	}
	// Magnitude scaling.
	if g.MedianPGV(8, 10, 760) <= g.MedianPGV(7, 10, 760) {
		t.Error("M8 not stronger than M7")
	}
	// Softer site amplifies (blin < 0).
	if g.MedianPGV(8, 10, 360) <= g.MedianPGV(8, 10, 760) {
		t.Error("soft site should amplify PGV")
	}
	// Plausible absolute level: an M8 at 10 km on rock gives tens of cm/s.
	v := g.MedianPGV(8.0, 10, 760)
	if v < 10 || v > 300 {
		t.Errorf("M8 @ 10 km PGV %g cm/s implausible", v)
	}
}

func TestCB08CloseToBA08(t *testing.T) {
	ba, cb := BooreAtkinson2008{}, CampbellBozorgnia2008{}
	for _, r := range []float64{2, 10, 30, 80, 150, 200} {
		a := ba.MedianPGV(8, r, 760)
		c := cb.MedianPGV(8, r, 760)
		ratio := c / a
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("NGA curves diverge at %g km: ratio %g", r, ratio)
		}
	}
	if ba.Name() == cb.Name() {
		t.Error("names must differ")
	}
}

func TestSeriesPGVAndPGVH(t *testing.T) {
	series := [][3]float32{{3, 4, 1}, {-6, 0, 0}, {0.5, 0.5, 10}}
	if got := PGVHFromSeries(series); math.Abs(got-6) > 1e-9 {
		t.Errorf("PGVH = %g, want 6", got)
	}
	if GeomMeanFromPeaks(4, 9) != 6 {
		t.Error("GeomMeanFromPeaks wrong")
	}
}

func TestGeomMeanBelowRSS(t *testing.T) {
	// §VII.C: the geometric mean is typically 1.5-2x smaller than the RSS
	// peak for strongly polarized motion; it can never exceed it.
	prop := func(a, b float32) bool {
		s := [][3]float32{{a, b, 0}}
		return GeomMeanFromPeaks(math.Abs(float64(a)), math.Abs(float64(b))) <= PGVHFromSeries(s)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinByDistance(t *testing.T) {
	var sites []Site
	for r := 0.5; r < 100; r += 0.5 {
		sites = append(sites, Site{DistKM: r, PGV: 100 / (r + 1), Rock: true})
		sites = append(sites, Site{DistKM: r, PGV: 1e6, Rock: false}) // ignored
	}
	bins := BinByDistance(sites, []float64{0, 10, 50, 100})
	if len(bins) != 3 {
		t.Fatalf("bins = %d", len(bins))
	}
	if bins[0].Count == 0 || bins[1].Count == 0 || bins[2].Count == 0 {
		t.Fatal("empty bins")
	}
	if !(bins[0].Median > bins[1].Median && bins[1].Median > bins[2].Median) {
		t.Fatalf("medians not decaying: %g %g %g", bins[0].Median, bins[1].Median, bins[2].Median)
	}
	if !(bins[0].P16 <= bins[0].Median && bins[0].Median <= bins[0].P84) {
		t.Fatal("percentiles out of order")
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	if quantile(v, 0.5) != 3 {
		t.Errorf("median = %g", quantile(v, 0.5))
	}
	if quantile(v, 0) != 1 || quantile(v, 1) != 5 {
		t.Error("extremes wrong")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile")
	}
}

func TestFaultTraceDistance(t *testing.T) {
	trace := [][2]float64{{0, 0}, {10000, 0}} // 10 km segment on y=0
	if d := FaultTraceDistanceKM(5000, 3000, trace); math.Abs(d-3) > 1e-9 {
		t.Errorf("mid-segment distance = %g, want 3", d)
	}
	if d := FaultTraceDistanceKM(-4000, 3000, trace); math.Abs(d-5) > 1e-9 {
		t.Errorf("endpoint distance = %g, want 5", d)
	}
	if d := FaultTraceDistanceKM(0, 0, nil); !math.IsInf(d, 1) {
		t.Error("empty trace should be infinite")
	}
	// Degenerate single-point segment.
	pt := [][2]float64{{1000, 1000}, {1000, 1000}}
	if d := FaultTraceDistanceKM(1000, 2000, pt); math.Abs(d-1) > 1e-9 {
		t.Errorf("point distance = %g", d)
	}
}
