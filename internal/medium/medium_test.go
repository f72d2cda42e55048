package medium

import (
	"fmt"
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

// TestReciprocalsMatch checks the stored reciprocal coefficients against the
// node values they stand for: in a laterally uniform model the reciprocal
// densities at vx and vy points are 1/rho, and the harmonic mean at xy points
// is mu itself.
func TestReciprocalsMatch(t *testing.T) {
	q := cvm.HardRock()
	d := grid.Dims{NX: 6, NY: 6, NZ: 12}
	dc, sub := singleRank(t, d)
	m := FromCVM(q, dc, sub, 500)
	for k := 0; k < d.NZ; k++ {
		rho := float64(m.Rho.At(3, 3, k))
		if rel(float64(m.BX.At(3, 3, k)), 1/rho) > 1e-5 || rel(float64(m.BY.At(3, 3, k)), 1/rho) > 1e-5 {
			t.Fatalf("BX/BY = %g/%g at k=%d, want 1/rho = %g", m.BX.At(3, 3, k), m.BY.At(3, 3, k), k, 1/rho)
		}
		if mu := float64(m.Mu.At(3, 3, k)); rel(float64(m.MuXY.At(3, 3, k)), mu) > 1e-5 {
			t.Fatalf("MuXY = %g at k=%d, want mu = %g", m.MuXY.At(3, 3, k), k, mu)
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
// became row sweeps — kept as its oracle: the staggered coefficients over
// the subgrid's cells, then the free surface's ratios from the lam
// SurfaceRatio holds.
func refFinalize(m *Medium) {
	d := m.Dims
	for k := 0; k < d.NZ; k++ {
		for j := 0; j < d.NY; j++ {
			for i := 0; i < d.NX; i++ {
				lam := m.Lam.At(i, j, k)
				mu := m.Mu.At(i, j, k)
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
	for j := -1; j <= d.NY; j++ {
		for i := -1; i <= d.NX; i++ {
			n := (j+1)*(d.NX+2) + i + 1
			lam := m.SurfaceRatio[n]
			l2m := lam + 2*m.Mu.At(i, j, 0)
			m.SurfaceRatio[n] = lam / l2m
		}
	}
}

func harmonic4(a, b, c, d float32) float32 {
	return 4 / (1/a + 1/b + 1/c + 1/d)
}

// TestFinalizeRowsMatchPointwise holds the row-sweep finalize to the
// pointwise oracle on the whole Data() of every array and on SurfaceRatio: a
// heterogeneous model with a water layer's zero rigidity (1/mu = +Inf, a
// harmonic mean of exactly 0) on a cube, a pencil and a slab of a subgrid.
func TestFinalizeRowsMatchPointwise(t *testing.T) {
	for _, d := range []grid.Dims{{NX: 13, NY: 9, NZ: 7}, {NX: 40, NY: 1, NZ: 2}, {NX: 1, NY: 6, NZ: 11}} {
		got, want := alloc(d, 50), alloc(d, 50)
		for _, m := range []*Medium{got, want} {
			g := grid.Ghost
			for k := -g; k < d.NZ+g; k++ {
				for j := -g; j < d.NY+g; j++ {
					for i := -g; i < d.NX+g; i++ {
						// A deterministic scramble: properties vary node to
						// node along every axis, and every seventh node is
						// fluid.
						idx := m.Rho.Idx(i, j, k)
						x := float64((idx*2654435761)%1000) / 1000
						vs := 400 + 3000*x
						if idx%7 == 3 {
							vs = 0
						}
						rho, lam, mu := convert(cvm.Material{Vp: 1500 + 5000*x, Vs: vs, Rho: 1000 + 1800*x})
						m.Rho.Set(i, j, k, float32(rho))
						m.Mu.Set(i, j, k, float32(mu))
						if i >= 0 && i < d.NX && j >= 0 && j < d.NY && k >= 0 && k < d.NZ {
							m.Lam.Set(i, j, k, float32(lam))
						}
						if k == 0 && i >= -1 && i <= d.NX && j >= -1 && j <= d.NY {
							m.SurfaceRatio[(j+1)*(d.NX+2)+i+1] = float32(lam)
						}
					}
				}
			}
		}
		got.finalize()
		refFinalize(want)
		expectSameBits(t, d.String(), got, want)
		zeroMeans := 0
		for idx, v := range got.MuXY.Data() {
			if v == 0 && got.Mu.Data()[idx] != 0 {
				zeroMeans++
			}
		}
		if zeroMeans == 0 {
			t.Errorf("%v: no harmonic mean touched a fluid node", d)
		}
	}
}

// fieldNames names the arrays of a Medium in allocation order, and the
// free surface's ratios.
var fieldNames = []string{"Rho", "Mu", "Lam", "BX", "BY", "BZ", "MuXY", "MuXZ", "MuYZ", "Lam2Mu", "QS", "SurfaceRatio"}

func fields(m *Medium) [][]float32 {
	var out [][]float32
	for _, f := range []*grid.Field3{m.Rho, m.Mu, m.Lam, m.BX, m.BY, m.BZ, m.MuXY, m.MuXZ, m.MuYZ, m.Lam2Mu, m.QS} {
		out = append(out, f.Data())
	}
	return append(out, m.SurfaceRatio)
}

// expectSameBits fails unless got and want hold the same bits in the whole
// Data() of every array, ghosts included where there are any, and in
// SurfaceRatio.
func expectSameBits(t *testing.T, tag string, got, want *Medium) {
	t.Helper()
	gf, wf := fields(got), fields(want)
	for fi := range gf {
		if len(gf[fi]) != len(wf[fi]) {
			t.Fatalf("%s: %s holds %d values, pointwise %d", tag, fieldNames[fi], len(gf[fi]), len(wf[fi]))
		}
		for idx, v := range gf[fi] {
			if w := wf[fi][idx]; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s: %s[%d] = %g (%#x), pointwise %g (%#x)", tag, fieldNames[fi], idx, v, math.Float32bits(v), w, math.Float32bits(w))
			}
		}
	}
}

// refFromCVM is the pointwise form of FromCVM — the body it had before it
// wrote rows from cvm.QueryRow — kept as its oracle.
func refFromCVM(q cvm.Querier, s decomp.Sub, h float64) *Medium {
	m := alloc(s.Local, h)
	g := grid.Ghost
	minVs, maxVp := math.Inf(1), 0.0
	for k := -g; k < s.Local.NZ+g; k++ {
		for j := -g; j < s.Local.NY+g; j++ {
			for i := -g; i < s.Local.NX+g; i++ {
				x := float64(s.OffX+i) * h
				y := float64(s.OffY+j) * h
				z := float64(s.OffZ+k) * h
				mat := q.Query(x, y, z)
				rho, lam, mu := convert(mat)
				m.Rho.Set(i, j, k, float32(rho))
				m.Mu.Set(i, j, k, float32(mu))
				if i >= 0 && i < s.Local.NX && j >= 0 && j < s.Local.NY && k >= 0 && k < s.Local.NZ {
					m.Lam.Set(i, j, k, float32(lam))
					_, qs := mat.Quality()
					m.QS.Set(i, j, k, float32(qs))
					minVs = math.Min(minVs, mat.Vs)
					maxVp = math.Max(maxVp, mat.Vp)
				}
				if k == 0 && i >= -1 && i <= s.Local.NX && j >= -1 && j <= s.Local.NY {
					m.SurfaceRatio[(j+1)*(s.Local.NX+2)+i+1] = float32(lam)
				}
			}
		}
	}
	m.MinVs, m.MaxVp = minVs, maxVp
	m.finalize()
	return m
}

// pointOnly hides a model's QueryRow, so cvm.QueryRow falls back to Query.
type pointOnly struct{ cvm.Querier }

// float32Model rounds a model's materials to float32, as a mesh file stores
// them.
type float32Model struct{ cvm.Querier }

func (q float32Model) Query(x, y, z float64) cvm.Material {
	m := q.Querier.Query(x, y, z)
	return cvm.Material{Vp: float64(float32(m.Vp)), Vs: float64(float32(m.Vs)), Rho: float64(float32(m.Rho))}
}

// paddedArrays samples q over sub's padded extent into the three arrays
// FromArrays takes, in grid.Field3 layout.
func paddedArrays(q cvm.Querier, s decomp.Sub, h float64) (vp, vs, rho []float32) {
	f, g := grid.NewField3(s.Local), grid.Ghost
	vp, vs, rho = make([]float32, len(f.Data())), make([]float32, len(f.Data())), make([]float32, len(f.Data()))
	for k := -g; k < s.Local.NZ+g; k++ {
		for j := -g; j < s.Local.NY+g; j++ {
			for i := -g; i < s.Local.NX+g; i++ {
				mat, n := q.Query(float64(s.OffX+i)*h, float64(s.OffY+j)*h, float64(s.OffZ+k)*h), f.Idx(i, j, k)
				vp[n], vs[n], rho[n] = float32(mat.Vp), float32(mat.Vs), float32(mat.Rho)
			}
		}
	}
	return vp, vs, rho
}

// TestFromCVMRowsMatchPointwise holds FromCVM and FromArrays to refFromCVM —
// every array, ghosts included where there are any, the free surface's
// ratios and the interior extremes, bit for bit
// — on every subgrid of 1×1×1, 2×2×2 and 2×2×1 at the solve and pipeline
// benchmark shapes of the SoCal model, and on models cvm.QueryRow samples
// point by point (Layered, and a SoCal seen through Query alone). FromArrays
// is fed the padded arrays of the float32-rounded model and held to
// refFromCVM of that model.
func TestFromCVMRowsMatchPointwise(t *testing.T) {
	socal := func(d grid.Dims, h float64) cvm.Querier {
		return cvm.SoCal(float64(d.NX-1)*h, float64(d.NY-1)*h, float64(d.NZ-1)*h, 500)
	}
	solve, pipe := grid.Dims{NX: 56, NY: 56, NZ: 40}, grid.Dims{NX: 192, NY: 128, NZ: 64}
	cases := []struct {
		name string
		q    cvm.Querier
		d    grid.Dims
		h    float64
	}{
		{"solve", socal(solve, 200), solve, 200},
		{"pipeline", socal(pipe, 400), pipe, 400},
		{"layered", cvm.HardRock(), grid.Dims{NX: 12, NY: 10, NZ: 30}, 100},
		{"homogeneous", cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), grid.Dims{NX: 9, NY: 8, NZ: 8}, 100},
		{"point-only", pointOnly{socal(solve, 200)}, solve, 200},
	}
	expect := func(tag string, got, want *Medium) {
		t.Helper()
		expectSameBits(t, tag, got, want)
		if math.Float64bits(got.MinVs) != math.Float64bits(want.MinVs) || math.Float64bits(got.MaxVp) != math.Float64bits(want.MaxVp) {
			t.Fatalf("%s: extremes %g/%g, pointwise %g/%g", tag, got.MinVs, got.MaxVp, want.MinVs, want.MaxVp)
		}
		if got.Unphysical {
			t.Fatalf("%s: a physical model flagged Unphysical", tag)
		}
	}
	for _, tc := range cases {
		for _, topo := range []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 2, 2), mpi.NewCart(2, 2, 1)} {
			dc, err := decomp.New(tc.d, topo)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < topo.Size(); r++ {
				tag, sub := fmt.Sprintf("%s %v rank %d", tc.name, topo, r), dc.SubFor(r)
				expect("FromCVM "+tag, FromCVM(tc.q, dc, sub, tc.h), refFromCVM(tc.q, sub, tc.h))
				vp, vs, rho := paddedArrays(tc.q, sub, tc.h)
				got, err := FromArrays(sub.Local, tc.h, vp, vs, rho)
				if err != nil {
					t.Fatal(err)
				}
				expect("FromArrays "+tag, got, refFromCVM(float32Model{tc.q}, sub, tc.h))
			}
		}
	}
}

// TestFromArraysGhosts: ghost nodes take part in the stored arrays and in
// Unphysical, but not in MinVs/MaxVp, which fold the interior alone.
func TestFromArraysGhosts(t *testing.T) {
	d := grid.Dims{NX: 5, NY: 4, NZ: 3}
	f := grid.NewField3(d)
	build := func(ghost, odd [3]float32) *Medium {
		t.Helper()
		n := len(f.Data())
		vp, vs, rho := make([]float32, n), make([]float32, n), make([]float32, n)
		for k := -grid.Ghost; k < d.NZ+grid.Ghost; k++ {
			for j := -grid.Ghost; j < d.NY+grid.Ghost; j++ {
				for i := -grid.Ghost; i < d.NX+grid.Ghost; i++ {
					mat := [3]float32{6000, 3464, 2700}
					if i < 0 || i >= d.NX || j < 0 || j >= d.NY || k < 0 || k >= d.NZ {
						mat = ghost
					}
					if i == d.NX+1 && j == 1 && k == 2 { // one ghost node past the high-x face
						mat = odd
					}
					n := f.Idx(i, j, k)
					vp[n], vs[n], rho[n] = mat[0], mat[1], mat[2]
				}
			}
		}
		m, err := FromArrays(d, 100, vp, vs, rho)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fast := [3]float32{9000, 100, 2000} // faster P, slower S than the interior
	m := build(fast, fast)
	if m.MinVs != 3464 || m.MaxVp != 6000 || m.Unphysical {
		t.Fatalf("ghosts %v: extremes %g/%g, Unphysical %v; want the interior's 3464/6000, false", fast, m.MinVs, m.MaxVp, m.Unphysical)
	}
	if got, want := m.Mu.At(-1, 0, 0), float32(2000*100*100); got != want {
		t.Fatalf("ghost mu = %g, want %g", got, want)
	}
	for _, bad := range [][3]float32{{float32(math.NaN()), 100, 2000}, {9000, -1, 2000}, {9000, 100, 0}} {
		if m := build(fast, bad); !m.Unphysical || m.MinVs != 3464 || m.MaxVp != 6000 {
			t.Fatalf("ghost node %v: Unphysical %v, extremes %g/%g; want true, 3464/6000", bad, m.Unphysical, m.MinVs, m.MaxVp)
		}
	}
}

// TestUnphysicalFlagged: a material no wave can cross anywhere in the padded
// subgrid — a ghost node included — sets Unphysical; a fluid's Vs = 0 does
// not.
func TestUnphysicalFlagged(t *testing.T) {
	d := grid.Dims{NX: 4, NY: 4, NZ: 4}
	dc, sub := singleRank(t, d)
	good := cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}
	for _, tc := range []struct {
		name string
		bad  cvm.Material
		want bool
	}{
		{"fluid", cvm.Material{Vp: 1500, Vs: 0, Rho: 1000}, false},
		{"negative zero Vs", cvm.Material{Vp: 1500, Vs: math.Copysign(0, -1), Rho: 1000}, false},
		{"NaN Vp", cvm.Material{Vp: math.NaN(), Vs: 3464, Rho: 2700}, true},
		{"zero Vp", cvm.Material{Vp: 0, Vs: 0, Rho: 2700}, true},
		{"negative Vs", cvm.Material{Vp: 6000, Vs: -1000, Rho: 2700}, true},
		{"zero density", cvm.Material{Vp: 6000, Vs: 3464, Rho: 0}, true},
		{"infinite Vs", cvm.Material{Vp: 6000, Vs: math.Inf(1), Rho: 2700}, true},
	} {
		// The odd node sits in the high-x ghost layer of the corner row.
		q := oneNode{x: float64(d.NX+1) * 100, y: -200, z: -200, at: tc.bad, other: good}
		if got := FromCVM(q, dc, sub, 100).Unphysical; got != tc.want {
			t.Errorf("%s: Unphysical = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// oneNode answers at for the point (x, y, z) and other everywhere else.
type oneNode struct {
	x, y, z   float64
	at, other cvm.Material
}

func (o oneNode) Query(x, y, z float64) cvm.Material {
	if x == o.x && y == o.y && z == o.z {
		return o.at
	}
	return o.other
}
