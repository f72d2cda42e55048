package medium

import (
	"math"
	"testing"

	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/mpi"
)

func singleRank(t *testing.T, d grid.Dims) (decomp.Decomp, decomp.Sub) {
	t.Helper()
	dc, err := decomp.New(d, mpi.NewCart(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return dc, dc.SubFor(0)
}

func TestFromCVMHomogeneous(t *testing.T) {
	mat := cvm.Material{Vp: 6000, Vs: 3464.1016, Rho: 2700}
	q := cvm.Homogeneous(mat)
	d := grid.Dims{NX: 8, NY: 8, NZ: 8}
	dc, sub := singleRank(t, d)
	m := FromCVM(q, dc, sub, 100)

	wantMu := mat.Rho * mat.Vs * mat.Vs
	wantLam := mat.Rho*mat.Vp*mat.Vp - 2*wantMu
	if rel(float64(m.Mu.At(3, 3, 3)), wantMu) > 1e-5 {
		t.Errorf("mu = %g, want %g", m.Mu.At(3, 3, 3), wantMu)
	}
	if rel(float64(m.Lam.At(3, 3, 3)), wantLam) > 1e-4 {
		t.Errorf("lam = %g, want %g", m.Lam.At(3, 3, 3), wantLam)
	}
	// In a homogeneous medium all staggered averages equal node values.
	if rel(float64(m.MuXY.At(2, 2, 2)), wantMu) > 1e-5 {
		t.Errorf("muXY = %g, want %g", m.MuXY.At(2, 2, 2), wantMu)
	}
	if rel(float64(m.BX.At(2, 2, 2)), 1/mat.Rho) > 1e-5 {
		t.Errorf("bx = %g, want %g", m.BX.At(2, 2, 2), 1/mat.Rho)
	}
	if rel(float64(m.Lam2Mu.At(1, 1, 1)), wantLam+2*wantMu) > 1e-5 {
		t.Errorf("lam2mu wrong")
	}
	if m.MinVs != mat.Vs || m.MaxVp != mat.Vp {
		t.Errorf("extremes = %g/%g", m.MinVs, m.MaxVp)
	}
}

func TestReciprocalsMatch(t *testing.T) {
	q := cvm.HardRock()
	d := grid.Dims{NX: 6, NY: 6, NZ: 12}
	dc, sub := singleRank(t, d)
	m := FromCVM(q, dc, sub, 500)
	for k := 0; k < d.NZ; k++ {
		lam := m.Lam.At(3, 3, k)
		if rel(float64(m.LamI.At(3, 3, k)), 1/float64(lam)) > 1e-5 {
			t.Fatalf("LamI mismatch at k=%d", k)
		}
		mu := m.Mu.At(3, 3, k)
		if rel(float64(m.MuI.At(3, 3, k)), 1/float64(mu)) > 1e-5 {
			t.Fatalf("MuI mismatch at k=%d", k)
		}
	}
}

func TestHarmonicMeanBetweenLayers(t *testing.T) {
	// Across a layer interface, harmonic mean must lie between the two mu
	// values and below their arithmetic mean.
	q := cvm.HardRock()
	d := grid.Dims{NX: 4, NY: 4, NZ: 40}
	dc, sub := singleRank(t, d)
	m := FromCVM(q, dc, sub, 100) // layer boundary at z=1000m -> k=10
	k := 9
	a := float64(m.Mu.At(2, 2, k))
	b := float64(m.Mu.At(2, 2, k+1))
	hm := float64(m.MuYZ.At(2, 2, k)) // spans k and k+1
	lo, hi := math.Min(a, b), math.Max(a, b)
	if hm < lo || hm > hi {
		t.Fatalf("harmonic mean %g outside [%g,%g]", hm, lo, hi)
	}
	am := (a + b) / 2
	if hm >= am {
		t.Fatalf("harmonic mean %g not below arithmetic %g", hm, am)
	}
}

func TestGhostRegionFilled(t *testing.T) {
	q := cvm.HardRock()
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	dc, sub := singleRank(t, d)
	m := FromCVM(q, dc, sub, 100)
	// Ghost nodes must carry clamped (surface layer) values, not zeros.
	if m.Rho.At(-2, -2, -2) <= 0 {
		t.Fatal("ghost density not filled")
	}
	if m.Rho.At(7, 7, 7) <= 0 {
		t.Fatal("high ghost density not filled")
	}
}

func TestMultiRankConsistentWithGlobal(t *testing.T) {
	// The same global node must get identical properties regardless of
	// which rank extracts it (CVM fill is a pure function of coordinates).
	q := cvm.SoCal(8000, 8000, 8000, 400)
	g := grid.Dims{NX: 16, NY: 8, NZ: 8}
	topo := mpi.NewCart(2, 1, 1)
	dc, err := decomp.New(g, topo)
	if err != nil {
		t.Fatal(err)
	}
	h := 500.0
	m0 := FromCVM(q, dc, dc.SubFor(0), h)
	m1 := FromCVM(q, dc, dc.SubFor(1), h)
	s1 := dc.SubFor(1)
	// Global node (8+i, j, k) is local (i,j,k) on rank 1 and ghost/interior
	// overlap is testable at the seam: rank 0 ghost i=8 == rank 1 interior i=0.
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			if m0.Rho.At(8, j, k) != m1.Rho.At(8-s1.OffX, j, k) {
				t.Fatalf("seam mismatch at j=%d k=%d", j, k)
			}
		}
	}
}

func TestFromArraysRoundTrip(t *testing.T) {
	d := grid.Dims{NX: 4, NY: 4, NZ: 4}
	f := grid.NewField3(d)
	n := len(f.Data())
	vp := make([]float32, n)
	vs := make([]float32, n)
	rho := make([]float32, n)
	for i := range vp {
		vp[i], vs[i], rho[i] = 6000, 3464, 2700
	}
	m, err := FromArrays(d, 100, vp, vs, rho)
	if err != nil {
		t.Fatal(err)
	}
	if rel(float64(m.Mu.At(1, 1, 1)), 2700*3464*3464) > 1e-5 {
		t.Fatalf("mu = %g", m.Mu.At(1, 1, 1))
	}
	if m.MaxVp != 6000 {
		t.Fatalf("MaxVp = %g", m.MaxVp)
	}
}

func TestFromArraysLengthMismatch(t *testing.T) {
	if _, err := FromArrays(grid.Dims{NX: 4, NY: 4, NZ: 4}, 100, make([]float32, 3), make([]float32, 3), make([]float32, 3)); err == nil {
		t.Fatal("expected error for short arrays")
	}
}

func TestStableDt(t *testing.T) {
	q := cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700})
	dc, sub := singleRank(t, grid.Dims{NX: 4, NY: 4, NZ: 4})
	m := FromCVM(q, dc, sub, 100)
	dt := m.StableDt(1.0)
	want := (6.0 / 7.0) * 100 / (math.Sqrt(3) * 6000)
	if rel(dt, want) > 1e-12 {
		t.Fatalf("StableDt = %g, want %g", dt, want)
	}
	if m.StableDt(0.5) >= dt {
		t.Fatal("safety factor not applied")
	}
}

func rel(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// refFinalize is the pointwise form of finalize — the body it had before it
// became row sweeps — kept as its oracle.
func refFinalize(m *Medium) {
	d := m.Dims
	g := grid.Ghost - 1 // staggered averages reach one node beyond; keep 1-ghost margin
	for k := -g; k < d.NZ+g; k++ {
		for j := -g; j < d.NY+g; j++ {
			for i := -g; i < d.NX+g; i++ {
				lam := m.Lam.At(i, j, k)
				mu := m.Mu.At(i, j, k)
				m.LamI.Set(i, j, k, 1/lam)
				m.MuI.Set(i, j, k, 1/mu)
				m.Lam2Mu.Set(i, j, k, lam+2*mu)

				// Reciprocal densities at velocity points (2-point
				// arithmetic mean of rho).
				m.BX.Set(i, j, k, 2/(m.Rho.At(i, j, k)+m.Rho.At(i+1, j, k)))
				m.BY.Set(i, j, k, 2/(m.Rho.At(i, j, k)+m.Rho.At(i, j+1, k)))
				m.BZ.Set(i, j, k, 2/(m.Rho.At(i, j, k)+m.Rho.At(i, j, k+1)))

				// Harmonic-mean mu at shear-stress points (4-point).
				m.MuXY.Set(i, j, k, harmonic4(
					m.Mu.At(i, j, k), m.Mu.At(i+1, j, k),
					m.Mu.At(i, j+1, k), m.Mu.At(i+1, j+1, k)))
				m.MuXZ.Set(i, j, k, harmonic4(
					m.Mu.At(i, j, k), m.Mu.At(i+1, j, k),
					m.Mu.At(i, j, k+1), m.Mu.At(i+1, j, k+1)))
				m.MuYZ.Set(i, j, k, harmonic4(
					m.Mu.At(i, j, k), m.Mu.At(i, j+1, k),
					m.Mu.At(i, j, k+1), m.Mu.At(i, j+1, k+1)))
			}
		}
	}
}

func harmonic4(a, b, c, d float32) float32 {
	return 4 / (1/a + 1/b + 1/c + 1/d)
}

// TestFinalizeRowsMatchPointwise holds the row-sweep finalize to the
// pointwise oracle on the whole padded Data() of all fourteen arrays: a
// heterogeneous model with a water layer's zero rigidity (1/mu = +Inf, a
// harmonic mean of exactly 0) on a cube, a pencil and a slab of a subgrid.
func TestFinalizeRowsMatchPointwise(t *testing.T) {
	for _, d := range []grid.Dims{{NX: 13, NY: 9, NZ: 7}, {NX: 40, NY: 1, NZ: 2}, {NX: 1, NY: 6, NZ: 11}} {
		got, want := alloc(d, 50), alloc(d, 50)
		for _, m := range []*Medium{got, want} {
			for idx := range m.Rho.Data() {
				// A deterministic scramble: properties vary node to node along
				// every axis, and every seventh node is fluid.
				x := float64((idx*2654435761)%1000) / 1000
				vs := 400 + 3000*x
				if idx%7 == 3 {
					vs = 0
				}
				rho, lam, mu := convert(cvm.Material{Vp: 1500 + 5000*x, Vs: vs, Rho: 1000 + 1800*x})
				m.Rho.Data()[idx], m.Lam.Data()[idx], m.Mu.Data()[idx] = float32(rho), float32(lam), float32(mu)
			}
		}
		got.finalize()
		refFinalize(want)
		names := []string{"Rho", "Lam", "Mu", "LamI", "MuI", "BX", "BY", "BZ", "MuXY", "MuXZ", "MuYZ", "Lam2Mu", "QP", "QS"}
		gf := []*grid.Field3{got.Rho, got.Lam, got.Mu, got.LamI, got.MuI, got.BX, got.BY, got.BZ, got.MuXY, got.MuXZ, got.MuYZ, got.Lam2Mu, got.QP, got.QS}
		wf := []*grid.Field3{want.Rho, want.Lam, want.Mu, want.LamI, want.MuI, want.BX, want.BY, want.BZ, want.MuXY, want.MuXZ, want.MuYZ, want.Lam2Mu, want.QP, want.QS}
		zeroMeans := 0
		for fi := range gf {
			for idx, v := range gf[fi].Data() {
				if w := wf[fi].Data()[idx]; math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("%v: %s[%d] = %g (%#x), pointwise %g (%#x)", d, names[fi], idx, v, math.Float32bits(v), w, math.Float32bits(w))
				}
				if names[fi] == "MuXY" && v == 0 && got.MuI.Data()[idx] != 0 {
					zeroMeans++
				}
			}
		}
		if zeroMeans == 0 {
			t.Errorf("%v: no harmonic mean touched a fluid node", d)
		}
	}
}
