package cvm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHomogeneousQuery(t *testing.T) {
	want := Material{Vp: 6000, Vs: 3464, Rho: 2700}
	m := Homogeneous(want)
	for _, p := range [][3]float64{{0, 0, 0}, {1e5, 2e5, 5e4}, {-10, -10, 1}} {
		got := m.Query(p[0], p[1], p[2])
		if math.Abs(got.Vs-want.Vs) > 1e-9 || math.Abs(got.Vp-want.Vp) > 1e-6 {
			t.Fatalf("Query(%v) = %+v, want Vp/Vs %g/%g", p, got, want.Vp, want.Vs)
		}
	}
}

func TestSoCalBackgroundIncreasesWithDepth(t *testing.T) {
	m := SoCal(810e3, 405e3, 85e3, 400)
	// Probe a point far from all basins.
	x, y := 50e3, 350e3
	prev := m.Query(x, y, 0)
	for _, z := range []float64{500, 2000, 8000, 30000, 80000} {
		cur := m.Query(x, y, z)
		if cur.Vs < prev.Vs {
			t.Fatalf("Vs decreased with depth: %g at %g -> %g", prev.Vs, z, cur.Vs)
		}
		if cur.Vp <= cur.Vs {
			t.Fatalf("Vp <= Vs at depth %g", z)
		}
		prev = cur
	}
	if prev.Vs > m.MaxVs {
		t.Fatalf("Vs exceeded cap: %g", prev.Vs)
	}
}

func TestSoCalBasinsAreSlow(t *testing.T) {
	m := SoCal(810e3, 405e3, 85e3, 400)
	for _, b := range m.Basins {
		center := m.Query(b.CX, b.CY, 0)
		outside := m.Query(b.CX+2*b.RX, b.CY+2*b.RY, 0)
		if center.Vs >= outside.Vs {
			t.Errorf("basin %s: center Vs %g not slower than background %g", b.Name, center.Vs, outside.Vs)
		}
		if center.Vs < m.MinVs {
			t.Errorf("basin %s: Vs %g below floor %g", b.Name, center.Vs, m.MinVs)
		}
	}
}

func TestVsFloorApplied(t *testing.T) {
	m := SoCal(810e3, 405e3, 85e3, 760) // higher floor
	for _, b := range m.Basins {
		got := m.Query(b.CX, b.CY, 0)
		if got.Vs < 760 {
			t.Errorf("basin %s: Vs %g below requested floor", b.Name, got.Vs)
		}
	}
}

func TestQueryClampsOutside(t *testing.T) {
	m := SoCal(810e3, 405e3, 85e3, 400)
	in := m.Query(0, 0, 0)
	out := m.Query(-5000, -5000, -100)
	if in != out {
		t.Fatalf("clamped query differs: %+v vs %+v", in, out)
	}
}

func TestQuality(t *testing.T) {
	qp, qs := (Material{Vs: 2000}).Quality()
	if qs != 100 || qp != 200 {
		t.Fatalf("Quality = %g,%g, want 200,100", qp, qs)
	}
}

func TestNafeDrakeMonotoneInRange(t *testing.T) {
	prev := 0.0
	for vp := 1500.0; vp <= 8000; vp += 100 {
		rho := nafeDrake(vp)
		if rho <= prev {
			t.Fatalf("density not increasing at Vp=%g: %g <= %g", vp, rho, prev)
		}
		if rho < 1500 || rho > 3500 {
			t.Fatalf("implausible density %g at Vp=%g", rho, vp)
		}
		prev = rho
	}
}

func TestLayeredValidation(t *testing.T) {
	if _, err := NewLayered(nil, nil); err == nil {
		t.Error("accepted empty table")
	}
	if _, err := NewLayered([]float64{100}, []Material{{}}); err == nil {
		t.Error("accepted first depth != 0")
	}
	if _, err := NewLayered([]float64{0, 0}, []Material{{}, {}}); err == nil {
		t.Error("accepted non-ascending depths")
	}
	if _, err := NewLayered([]float64{0, 1}, []Material{{}}); err == nil {
		t.Error("accepted length mismatch")
	}
}

func TestLayeredInterpolation(t *testing.T) {
	l := HardRock()
	top := l.Query(0, 0, 0)
	if top.Vs != 1800 {
		t.Fatalf("surface Vs = %g", top.Vs)
	}
	mid := l.Query(0, 0, 500)
	if mid.Vs <= 1800 || mid.Vs >= 2800 {
		t.Fatalf("midpoint Vs = %g, want in (1800,2800)", mid.Vs)
	}
	deep := l.Query(0, 0, 1e6)
	if deep.Vs != 3900 {
		t.Fatalf("deep Vs = %g, want last layer", deep.Vs)
	}
	// Exactly at a boundary: continuous.
	at := l.Query(0, 0, 1000)
	if math.Abs(at.Vs-2800) > 1e-9 {
		t.Fatalf("Vs at layer top = %g, want 2800", at.Vs)
	}
}

func TestLayeredLateralInvariance(t *testing.T) {
	l := HardRock()
	a := l.Query(0, 0, 3000)
	b := l.Query(1e9, -1e9, 3000)
	if a != b {
		t.Fatal("layered model should be laterally invariant")
	}
}

// Property: any query anywhere in the SoCal model returns physically
// plausible values (Vs floor respected, Vp > Vs, density plausible).
func TestQuickSoCalPlausibility(t *testing.T) {
	m := SoCal(810e3, 405e3, 85e3, 400)
	prop := func(fx, fy, fz float64) bool {
		x := math.Abs(math.Mod(fx, 1)) * m.LX
		y := math.Abs(math.Mod(fy, 1)) * m.LY
		z := math.Abs(math.Mod(fz, 1)) * m.LZ
		mat := m.Query(x, y, z)
		return mat.Vs >= 400 && mat.Vp > mat.Vs &&
			mat.Rho >= 1000 && mat.Rho < 4000 &&
			mat.Vs <= m.MaxVs*1.01
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// fuzzModels are the models FuzzQueryRow draws from: the M8-scale and a
// bench-scale SoCal, SoCal with a fixed density and with a Vs floor above
// most of the crust, a basin centred on the y = 0 edge (ghost rows clamp
// into it), Homogeneous, and the layered HardRock (which QueryRow samples
// point by point).
func fuzzModels() []Querier {
	rho := SoCal(810e3, 405e3, 85e3, 400)
	rho.FixedRho = 2500
	edge := SoCal(20e3, 20e3, 8e3, 400)
	edge.Basins = []Basin{{Name: "edge", CX: 5e3, CY: 0, RX: 4e3, RY: 3e3, Depth: 3e3, SurfVs: 450, SurfVpVs: 2, SurfRho: 1900}}
	return []Querier{
		SoCal(810e3, 405e3, 85e3, 400),
		SoCal(55*200, 55*200, 39*200, 500),
		rho,
		SoCal(810e3, 405e3, 85e3, 2000),
		edge,
		Homogeneous(Material{Vp: 6000, Vs: 3464, Rho: 2700}),
		HardRock(),
	}
}

// FuzzQueryRow holds each model's QueryRow to its pointwise Query, bit for
// bit. A model with basins puts the row where dy²+dz² of one basin is
// 1-delta (shifted by yShift) and the row's xs around that basin's centre,
// so small deltas graze the edge the row cull decides on; a basin leaves
// bits a few ulps deep only when 1-r2 is above about 1e-8, so the 1e-7 and
// 1e-4 seeds are the ones a cull that drops a live basin fails.
func FuzzQueryRow(f *testing.F) {
	f.Add(uint8(0), uint8(0), 1e-12, 0.3, 0.0, -20e3, 1e3, uint8(41))   // inside by 1e-12
	f.Add(uint8(0), uint8(2), -1e-12, 0.0, 0.0, -5e3, 250.0, uint8(41)) // outside by 1e-12
	f.Add(uint8(0), uint8(1), 1e-7, 0.0, 0.0, -4e3, 200.0, uint8(41))
	f.Add(uint8(1), uint8(0), 1e-4, 0.2, 0.0, -1e3, 200.0, uint8(60))
	f.Add(uint8(1), uint8(3), 0.5, 0.5, 0.0, -7e3, 200.0, uint8(60))
	f.Add(uint8(2), uint8(0), 0.3, 0.1, 0.0, -30e3, 1e3, uint8(61))     // FixedRho
	f.Add(uint8(3), uint8(0), 0.9, 0.0, 0.0, -30e3, 1e3, uint8(61))     // MinVs floor
	f.Add(uint8(4), uint8(0), 0.5, 0.2, -400.0, -6e3, 200.0, uint8(64)) // ghost rows: y < 0, xs < 0
	f.Add(uint8(4), uint8(0), 0.5, -0.1, -1e9, -6e3, 200.0, uint8(64))
	f.Add(uint8(5), uint8(0), 0.0, 0.4, 10.0, -400.0, 200.0, uint8(30)) // Homogeneous
	f.Add(uint8(6), uint8(0), 0.0, 0.1, 0.0, -400.0, 200.0, uint8(30))  // Layered
	models := fuzzModels()
	f.Fuzz(func(t *testing.T, model, basin uint8, delta, zf, yShift, x0, step float64, n uint8) {
		q := models[int(model)%len(models)]
		y, z, cx := yShift, zf*20e3, 0.0
		if m, ok := q.(*Model); ok && len(m.Basins) > 0 {
			b := m.Basins[int(basin)%len(m.Basins)]
			z = zf * b.Depth
			y = b.CY + b.RY*math.Sqrt(math.Max(0, 1-delta-zf*zf)) + yShift
			cx = b.CX
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = cx + x0 + float64(i)*step
		}
		got := make([]Material, n)
		QueryRow(q, y, z, xs, got)
		for i, x := range xs {
			want := q.Query(x, y, z)
			if !sameBits(got[i], want) {
				t.Fatalf("row (y=%g, z=%g) x=%g: QueryRow %+v, Query %+v", y, z, x, got[i], want)
			}
		}
	})
}

func sameBits(a, b Material) bool {
	return math.Float64bits(a.Vp) == math.Float64bits(b.Vp) &&
		math.Float64bits(a.Vs) == math.Float64bits(b.Vs) &&
		math.Float64bits(a.Rho) == math.Float64bits(b.Rho)
}

// Property: the quality-factor relations hold exactly for any material.
func TestQuickQualityRelations(t *testing.T) {
	prop := func(vsk float64) bool {
		vs := 400 + math.Abs(math.Mod(vsk, 1))*4000
		qp, qs := (Material{Vs: vs}).Quality()
		return math.Abs(qs-50*vs/1000) < 1e-9 && math.Abs(qp-2*qs) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
