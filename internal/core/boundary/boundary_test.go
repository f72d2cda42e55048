package boundary

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/testkit"
)

func makeMedium(t testing.TB, q cvm.Querier, d grid.Dims, h float64) *medium.Medium {
	t.Helper()
	dc, err := decomp.New(d, mpi.NewCart(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return medium.FromCVM(q, dc, dc.SubFor(0), h)
}

// exchangeAxes refreshes ghosts periodically along the given axes.
func exchangeAxes(s *fd.State, axes ...grid.Axis) {
	for _, f := range s.Fields() {
		for _, ax := range axes {
			// The Ghost planes at each end fill the ghosts past the other end.
			n := [3]int{f.NX, f.NY, f.NZ}[ax]
			for _, p := range [2][2]int{{n - grid.Ghost, -grid.Ghost}, {0, n}} {
				b := [6]int{0, f.NX, 0, f.NY, 0, f.NZ}
				b[2*ax], b[2*ax+1] = p[0], p[0]+grid.Ghost
				buf := make([]float32, grid.RangeLen(b[0], b[1], b[2], b[3], b[4], b[5]))
				f.PackRange(b[0], b[1], b[2], b[3], b[4], b[5], buf)
				b[2*ax], b[2*ax+1] = p[1], p[1]+grid.Ghost
				f.UnpackRange(b[0], b[1], b[2], b[3], b[4], b[5], buf)
			}
		}
	}
}

func TestSpongeTaperShape(t *testing.T) {
	sp := NewSponge(grid.Dims{NX: 50, NY: 50, NZ: 50}, DefaultSpongeWidth, DefaultSpongeAlpha, AllAbsorbing())
	for i := 1; i < sp.Width; i++ {
		if sp.taper[i] <= sp.taper[i-1] {
			t.Fatalf("taper not increasing toward interior at %d", i)
		}
	}
	if sp.taper[sp.Width-1] >= 1 {
		t.Fatal("innermost taper must be < 1")
	}
	if sp.taper[0] <= 0 || sp.taper[0] >= sp.taper[sp.Width-1] {
		t.Fatal("boundary taper must be smallest positive")
	}
}

func TestSpongeWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width 0")
		}
	}()
	NewSponge(grid.Dims{NX: 8, NY: 8, NZ: 8}, 0, 0.015, FaceSet{})
}

func TestSpongeOnlyDampsSelectedFaces(t *testing.T) {
	d := grid.Dims{NX: 30, NY: 8, NZ: 8}
	sp := NewSponge(d, 5, 0.1, FaceSet{XHi: true})
	s := fd.NewState(d)
	for _, f := range s.Fields() {
		testkit.Fill(f, 1)
	}
	sp.ApplyPool(s, nil)
	if s.VX.At(2, 4, 4) != 1 {
		t.Fatal("interior/low-x damped unexpectedly")
	}
	if s.VX.At(d.NX-1, 4, 4) >= 1 {
		t.Fatal("high-x boundary not damped")
	}
	if got := s.VX.At(d.NX-1, 4, 4); got >= s.VX.At(d.NX-3, 4, 4) {
		t.Fatalf("damping not monotone toward boundary: %g vs %g", got, s.VX.At(d.NX-3, 4, 4))
	}
}

func TestBuildPMLTilesWithoutOverlap(t *testing.T) {
	d := grid.Dims{NX: 40, NY: 36, NZ: 32}
	zones, interior := BuildPML(d, AllAbsorbing(), 8, DefaultMPMLRatio, DefaultPMLReflection, 6000, 100)
	if len(zones) != 5 { // x lo/hi, y lo/hi, z hi (top is free surface)
		t.Fatalf("zone count = %d, want 5", len(zones))
	}
	owned := make(map[[3]int]int)
	count := func(b fd.Box) {
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					owned[[3]int{i, j, k}]++
				}
			}
		}
	}
	for _, z := range zones {
		count(z.Zone)
	}
	count(interior)
	if len(owned) != d.Cells() {
		t.Fatalf("covered %d cells, want %d", len(owned), d.Cells())
	}
	for c, n := range owned {
		if n != 1 {
			t.Fatalf("cell %v owned %d times", c, n)
		}
	}
}

func TestBuildPMLPanicsWhenZonesConsumeGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildPML(grid.Dims{NX: 12, NY: 12, NZ: 12}, AllAbsorbing(), 6, 0.1, 1e-5, 6000, 100)
}

// TestPMLShellOwnership builds the shell for each of the 64 FaceSets and
// checks, cell by cell against the pointwise ownership rule (refPMLOwner):
// a cell of some slab lies in exactly one zone and not in the interior, any
// other cell in the interior alone, so the zones and PMLInterior tile the
// subgrid; and the six coefficients Prepare lays for a zone cell are those
// of its owner at its depth, whichever zone holds it.
func TestPMLShellOwnership(t *testing.T) {
	sh := refPMLShell{d: grid.Dims{NX: 11, NY: 10, NZ: 9}, width: 3}
	dt := 1e-3
	for mask := 0; mask < 64; mask++ {
		sh.faces = FaceSet{XLo: mask&1 != 0, XHi: mask&2 != 0, YLo: mask&4 != 0, YHi: mask&8 != 0, ZLo: mask&16 != 0, ZHi: mask&32 != 0}
		zones, interior := BuildPML(sh.d, sh.faces, sh.width, DefaultMPMLRatio, DefaultPMLReflection, 6000, 100)
		if in := PMLInterior(sh.d, sh.faces, sh.width); interior != in {
			t.Fatalf("faces %+v: interior %v, PMLInterior %v", sh.faces, interior, in)
		}
		for _, z := range zones {
			z.Prepare(dt)
		}
		for k := 0; k < sh.d.NZ; k++ {
			for j := 0; j < sh.d.NY; j++ {
				for i := 0; i < sh.d.NX; i++ {
					cell := fd.Box{I0: i, I1: i + 1, J0: j, J1: j + 1, K0: k, K1: k + 1}
					var in []*PML
					for _, z := range zones {
						if z.Zone.Contains(cell) {
							in = append(in, z)
						}
					}
					_, _, shell := refPMLOwner(sh, i, j, k)
					inInterior := interior.Contains(cell)
					if shell && (len(in) != 1 || inInterior) || !shell && (len(in) != 0 || !inInterior) {
						t.Fatalf("faces %+v: cell (%d,%d,%d) of the shell %v lies in %d zones, interior %v", sh.faces, i, j, k, shell, len(in), inInterior)
					}
					if !shell {
						continue
					}
					z := in[0]
					want := refPMLCellCoef(refPMLCoefTable(z, dt), sh, i, j, k)
					nx, c0 := z.Zone.I1-z.Zone.I0, z.coefAt(j, k)+i-z.Zone.I0
					for s := 0; s < 3; s++ {
						dec, gain := z.coef[c0+2*s*nx], z.coef[c0+(2*s+1)*nx]
						if dec != want.dec[s] || gain != want.gain[s] {
							t.Fatalf("faces %+v: cell (%d,%d,%d) in the %v%v zone: split %d dec/gain %g/%g, owner's %g/%g",
								sh.faces, i, j, k, z.Axis, z.Side, s, dec, gain, want.dec[s], want.gain[s])
						}
					}
				}
			}
		}
	}
}

// TestPMLShellZoneCells pins the shell of the benchmark's 56×56×40 grid under
// a free surface: the x zones hold the x slabs' cells inside the y and z
// interior, the y zones whole xz slabs and the z zone the y interior's, so
// every y and z row is 56 cells long.
func TestPMLShellZoneCells(t *testing.T) {
	d := grid.Dims{NX: 56, NY: 56, NZ: 40}
	zones, interior := BuildPML(d, AllAbsorbing(), DefaultPMLWidth, DefaultMPMLRatio, DefaultPMLReflection, 6000, 100)
	var cells [3]int
	for _, z := range zones {
		cells[z.Axis] += z.Zone.Cells()
		if z.Axis != grid.X && z.Zone.I1-z.Zone.I0 != d.NX {
			t.Errorf("%v%v zone %v: rows of %d cells, want %d", z.Axis, z.Side, z.Zone, z.Zone.I1-z.Zone.I0, d.NX)
		}
	}
	if want := [3]int{21600, 44800, 20160}; len(zones) != 5 || cells != want {
		t.Fatalf("%d zones holding %v cells by axis, want 5 holding %v", len(zones), cells, want)
	}
	if shell := cells[0] + cells[1] + cells[2]; shell+interior.Cells() != d.Cells() {
		t.Fatalf("shell %d + interior %d cells, want %d", shell, interior.Cells(), d.Cells())
	}
}

// TestPMLSplitsHoldOnlyZoneCells: no stencil reads a split, so every one of
// the 24 split arrays of every zone BuildPML makes — x, y and z faces, both
// sides — holds exactly the zone's cells, with no ghost frame, and so does
// its restart section.
func TestPMLSplitsHoldOnlyZoneCells(t *testing.T) {
	d := grid.Dims{NX: 23, NY: 21, NZ: 19}
	all := FaceSet{XLo: true, XHi: true, YLo: true, YHi: true, ZLo: true, ZHi: true}
	zones, _ := BuildPML(d, all, 5, DefaultMPMLRatio, DefaultPMLReflection, 6000, 100)
	if len(zones) != 6 {
		t.Fatalf("zone count = %d, want 6", len(zones))
	}
	for _, z := range zones {
		cells := z.Zone.Cells()
		secs := z.Sections()
		if len(secs) != 24 {
			t.Fatalf("%v%v zone: %d sections, want 24", z.Axis, z.Side, len(secs))
		}
		held := 0
		for _, sec := range secs {
			if len(sec.F32) != cells {
				t.Errorf("%v%v zone %v: %s holds %d values, want the zone's %d cells", z.Axis, z.Side, z.Zone, sec.Name, len(sec.F32), cells)
			}
			held += len(sec.F32)
		}
		if held != 24*cells {
			t.Errorf("%v%v zone: sections hold %d values, want 24 × %d", z.Axis, z.Side, held, cells)
		}
		zd := grid.Dims{NX: z.Zone.I1 - z.Zone.I0, NY: z.Zone.J1 - z.Zone.J0, NZ: z.Zone.K1 - z.Zone.K0}
		for si, sp := range z.split {
			for fi, f := range sp.Fields() {
				if f != nil && (f.Dims != zd || testkit.Ghost(f) != 0 || len(f.Data()) != cells) {
					t.Errorf("%v%v zone: split %d %s is %v ghost %d over %d values, want %v dense", z.Axis, z.Side, si, fd.FieldNames[fi], f.Dims, testkit.Ghost(f), len(f.Data()), zd)
				}
			}
		}
	}
}

// pWaveState initializes a rightward-travelling P pulse centred at x0 (m).
func pWaveState(d grid.Dims, mat cvm.Material, h, dt, x0, sigma float64) *fd.State {
	s := fd.NewState(d)
	c := mat.Vp
	lam := mat.Rho*mat.Vp*mat.Vp - 2*mat.Rho*mat.Vs*mat.Vs
	f := func(x float64) float64 {
		dx := x - x0
		return math.Exp(-dx * dx / (2 * sigma * sigma))
	}
	g := grid.Ghost
	for k := -g; k < d.NZ+g; k++ {
		for j := -g; j < d.NY+g; j++ {
			for i := -g; i < d.NX+g; i++ {
				xv := (float64(i) + 0.5) * h // vx position
				s.VX.Set(i, j, k, float32(f(xv)))
				xs := float64(i) * h // normal stress position, t=+dt/2
				s.XX.Set(i, j, k, float32(-mat.Rho*c*f(xs-c*dt/2)))
				s.YY.Set(i, j, k, float32(-lam/c*f(xs-c*dt/2)))
				s.ZZ.Set(i, j, k, float32(-lam/c*f(xs-c*dt/2)))
			}
		}
	}
	return s
}

// velocityEnergyWindow sums vx^2 over i in [0, iMax).
func velocityEnergyWindow(s *fd.State, iMax int) float64 {
	var e float64
	for k := 0; k < s.Dims.NZ; k++ {
		for j := 0; j < s.Dims.NY; j++ {
			for i := 0; i < iMax; i++ {
				v := float64(s.VX.At(i, j, k))
				e += v * v
			}
		}
	}
	return e
}

// TestABCReflectionOrdering sends a P pulse into the high-x boundary under
// three treatments and checks the §II.D ordering: rigid boundary reflects
// nearly everything, the sponge absorbs most, the M-PML absorbs nearly all
// (PML reflection << sponge reflection).
func TestABCReflectionOrdering(t *testing.T) {
	mat := cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}
	q := cvm.Homogeneous(mat)
	nx, h := 140, 50.0
	d := grid.Dims{NX: nx, NY: 6, NZ: 6}
	m := makeMedium(t, q, d, h)
	dt := m.StableDt(0.45)
	sigma := 400.0
	x0 := 0.35 * float64(nx) * h
	// Time for the pulse to reach the boundary and any reflection to
	// return into the measurement window.
	steps := int(1.45 * float64(nx) * h / mat.Vp / dt)
	window := nx - DefaultPMLWidth - int(4*sigma/h)

	run := func(mode string) float64 {
		s := pWaveState(d, mat, h, dt, x0, sigma)
		e0 := velocityEnergyWindow(s, window)
		var zones []*PML
		interior := fd.FullBox(d)
		var sp *Sponge
		switch mode {
		case "pml":
			zones, interior = BuildPML(d, FaceSet{XHi: true}, DefaultPMLWidth,
				DefaultMPMLRatio, DefaultPMLReflection, mat.Vp, h)
		case "sponge":
			sp = NewSponge(d, DefaultSpongeWidth, DefaultSpongeAlpha, FaceSet{XHi: true})
		}
		for n := 0; n < steps; n++ {
			exchangeAxes(s, grid.Y, grid.Z)
			fd.UpdateVelocity(s, m, dt, interior, fd.Precomp, fd.Blocking{})
			for _, z := range zones {
				z.UpdateVelocity(s, m, dt)
			}
			exchangeAxes(s, grid.Y, grid.Z)
			fd.UpdateStress(s, m, dt, interior, fd.Precomp, fd.Blocking{})
			for _, z := range zones {
				z.UpdateStress(s, m, dt)
			}
			if sp != nil {
				sp.ApplyPool(s, nil)
			}
		}
		return velocityEnergyWindow(s, window) / e0
	}

	rigid := run("rigid")
	sponge := run("sponge")
	pml := run("pml")
	t.Logf("residual energy fractions: rigid=%.4f sponge=%.4f pml=%.6f", rigid, sponge, pml)
	if rigid < 0.5 {
		t.Errorf("rigid boundary lost energy: %g (test geometry suspect)", rigid)
	}
	// At normal incidence both ABCs absorb well (the sponge's weakness is
	// grazing incidence and long wavelengths); require both to beat the
	// rigid wall by orders of magnitude at their production widths.
	if sponge > 0.3 {
		t.Errorf("sponge residual %g, want < 0.3", sponge)
	}
	if pml > 0.02 {
		t.Errorf("PML residual %g, want < 0.02", pml)
	}
}

// layeredPMLRun drives a point impulse through a strongly layered medium
// (soft sediments over hard rock: large media gradients inside the
// boundary zones) ringed by split-field PMLs of parallel damping ratio p
// under a free surface, and returns the velocity energy after `steps`
// steps. stopAbove > 0 ends the run early once the energy, checked every
// 100 steps, has passed it.
func layeredPMLRun(t *testing.T, p float64, steps int, stopAbove float64) float64 {
	t.Helper()
	d := grid.Dims{NX: 40, NY: 40, NZ: 32}
	h := 100.0
	q, err := cvm.NewLayered(
		[]float64{0, 800, 1600},
		[]cvm.Material{
			{Vp: 1200, Vs: 500, Rho: 1800},
			{Vp: 3500, Vs: 2000, Rho: 2400},
			{Vp: 6500, Vs: 3750, Rho: 2800},
		})
	if err != nil {
		t.Fatal(err)
	}
	m := makeMedium(t, q, d, h)
	dt := m.StableDt(0.45)
	zones, interior := BuildPML(d, AllAbsorbing(), 8, p, DefaultPMLReflection, m.MaxVp, h)
	s := fd.NewState(d)
	s.VZ.Set(20, 20, 8, 1)
	fsf := NewFreeSurface(d)
	energy := func() float64 { return testkit.SumSq(s.VX) + testkit.SumSq(s.VY) + testkit.SumSq(s.VZ) }
	for n := 1; n <= steps; n++ {
		fd.UpdateVelocity(s, m, dt, interior, fd.Precomp, fd.Blocking{})
		for _, z := range zones {
			z.UpdateVelocity(s, m, dt)
		}
		fsf.ApplyVelocity(s, m)
		fd.UpdateStress(s, m, dt, interior, fd.Precomp, fd.Blocking{})
		for _, z := range zones {
			z.UpdateStress(s, m, dt)
		}
		fsf.ApplyStress(s)
		if stopAbove > 0 && n%100 == 0 && energy() > stopAbove {
			break
		}
	}
	return energy()
}

// mpmlLongRun is the 3000-step M-PML run both long-run tests judge; it
// executes once.
var mpmlLongRun struct {
	once   sync.Once
	energy float64
}

func mpmlLongRunEnergy(t *testing.T) float64 {
	mpmlLongRun.once.Do(func() {
		mpmlLongRun.energy = layeredPMLRun(t, DefaultMPMLRatio, 3000, 0)
	})
	return mpmlLongRun.energy
}

// TestMPMLStableLongRun drives an impulse into the corner PML regions of a
// strongly layered medium and checks no blow-up over a long run (the
// multi-axial damping term is what keeps this stable, §II.D).
func TestMPMLStableLongRun(t *testing.T) {
	t.Parallel()
	var e float64
	if testing.Short() {
		e = layeredPMLRun(t, DefaultMPMLRatio, 600, 0)
	} else {
		e = mpmlLongRunEnergy(t)
	}
	if math.IsNaN(e) || e > 1 {
		t.Fatalf("M-PML run unstable or not absorbing: energy %g (impulse should have left)", e)
	}
}

func TestFreeSurfaceStressImages(t *testing.T) {
	d := grid.Dims{NX: 8, NY: 8, NZ: 8}
	fs := NewFreeSurface(d)
	s := fd.NewState(d)
	s.ZZ.Set(3, 3, 0, 2)
	s.ZZ.Set(3, 3, 1, 4)
	s.XZ.Set(3, 3, 0, 6)
	s.YZ.Set(3, 3, 0, 8)
	fs.ApplyStress(s)
	if s.ZZ.At(3, 3, -1) != -2 || s.ZZ.At(3, 3, -2) != -4 {
		t.Errorf("szz images wrong: %g %g", s.ZZ.At(3, 3, -1), s.ZZ.At(3, 3, -2))
	}
	if s.XZ.At(3, 3, -1) != 0 || s.XZ.At(3, 3, -2) != -6 {
		t.Errorf("sxz images wrong")
	}
	if s.YZ.At(3, 3, -1) != 0 || s.YZ.At(3, 3, -2) != -8 {
		t.Errorf("syz images wrong")
	}
}

// refApplyStress is FreeSurface.ApplyStress as it was first written, one
// At/Set per value, kept as the oracle of the row windows.
func refApplyStress(fs *FreeSurface, s *fd.State) {
	d := fs.Dims
	g := grid.Ghost
	for j := -g; j < d.NY+g; j++ {
		for i := -g; i < d.NX+g; i++ {
			s.ZZ.Set(i, j, -1, -s.ZZ.At(i, j, 0))
			s.ZZ.Set(i, j, -2, -s.ZZ.At(i, j, 1))
			s.XZ.Set(i, j, -1, 0)
			s.XZ.Set(i, j, -2, -s.XZ.At(i, j, 0))
			s.YZ.Set(i, j, -1, 0)
			s.YZ.Set(i, j, -2, -s.YZ.At(i, j, 0))
		}
	}
}

// surfaceModuli returns lam and lam+2mu at node (i, j, 0) of a one-rank
// medium sampled from q at spacing h, as medium computes and rounds them.
func surfaceModuli(q cvm.Querier, h float64, i, j int) (lam, l2m float32) {
	mat := q.Query(float64(i)*h, float64(j)*h, 0)
	mu := mat.Rho * mat.Vs * mat.Vs
	lam = float32(mat.Rho*mat.Vp*mat.Vp - 2*mu)
	return lam, lam + 2*float32(mu)
}

// refApplyVelocity is FreeSurface.ApplyVelocity as it was first written,
// the oracle of the row windows, on the one-rank medium of q at spacing h:
// it reads lam and lam+2mu of each node, which no array holds beyond the
// subgrid.
func refApplyVelocity(fs *FreeSurface, s *fd.State, q cvm.Querier, h float64) {
	d := fs.Dims
	g := grid.Ghost
	for j := -g + 1; j < d.NY+g-1; j++ {
		for i := -g + 1; i < d.NX+g-1; i++ {
			s.VX.Set(i, j, -1, s.VX.At(i, j, 0))
			s.VX.Set(i, j, -2, s.VX.At(i, j, 1))
			s.VY.Set(i, j, -1, s.VY.At(i, j, 0))
			s.VY.Set(i, j, -2, s.VY.At(i, j, 1))

			lam, l2m := surfaceModuli(q, h, i, j)
			div := (s.VX.At(i, j, 0) - s.VX.At(i-1, j, 0)) +
				(s.VY.At(i, j, 0) - s.VY.At(i, j-1, 0))
			w0 := s.VZ.At(i, j, 0)
			wm1 := w0 + lam/l2m*div
			s.VZ.Set(i, j, -1, wm1)
			s.VZ.Set(i, j, -2, 2*wm1-w0)
		}
	}
}

// TestFreeSurfaceRowsMatchPointwise holds both free-surface passes to their
// pointwise oracles bit for bit, every padded value of the nine fields, over
// states of random-exponent values (±0, subnormals and values far apart in
// one divergence) on a heterogeneous medium, on grids whose rows are odd and
// even and one cell wide. The oracle's moduli are the medium's Lam and
// Lam2Mu on the subgrid's surface cells.
func TestFreeSurfaceRowsMatchPointwise(t *testing.T) {
	for _, d := range []grid.Dims{{NX: 7, NY: 5, NZ: 4}, {NX: 12, NY: 9, NZ: 5}, {NX: 1, NY: 3, NZ: 4}} {
		q := cvm.SoCal(float64(d.NX)*100, float64(d.NY)*100, float64(d.NZ)*100, 400)
		m := makeMedium(t, q, d, 100)
		for j := 0; j < d.NY; j++ {
			for i := 0; i < d.NX; i++ {
				if lam, l2m := surfaceModuli(q, 100, i, j); lam != m.Lam.At(i, j, 0) || l2m != m.Lam2Mu.At(i, j, 0) {
					t.Fatalf("%v (%d,%d): oracle's moduli %g/%g, the medium's %g/%g", d, i, j, lam, l2m, m.Lam.At(i, j, 0), m.Lam2Mu.At(i, j, 0))
				}
			}
		}
		fs := NewFreeSurface(d)
		rng := rand.New(rand.NewSource(int64(d.NX)))
		for round := 0; round < 3; round++ {
			ref := fd.NewState(d)
			fillFront(rng, ref.Fields())
			scatter(rng, 5, ref.Fields())
			got := ref.Clone()
			refApplyVelocity(fs, ref, q, 100)
			fs.ApplyVelocity(got, m)
			refApplyStress(fs, ref)
			fs.ApplyStress(got)
			if name, n := firstBitDiff(got.Fields(), ref.Fields(), fd.FieldNames); name != "" {
				t.Fatalf("%v round %d: %s[%d] = %g, pointwise %g", d, round, name, n,
					got.Fields()[slices.Index(fd.FieldNames, name)].Data()[n], ref.Fields()[slices.Index(fd.FieldNames, name)].Data()[n])
			}
		}
	}
}

// TestFreeSurfaceReflectionDoubling: a plane P wave incident vertically on
// the free surface reflects with velocity doubling at the surface and full
// amplitude on return (free-surface reflection coefficient -1 for stress,
// +1 for velocity).
func TestFreeSurfaceReflection(t *testing.T) {
	mat := cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}
	q := cvm.Homogeneous(mat)
	nz, h := 200, 50.0
	d := grid.Dims{NX: 6, NY: 6, NZ: nz}
	m := makeMedium(t, q, d, h)
	dt := m.StableDt(0.45)
	fs := NewFreeSurface(d)

	sigma := 400.0
	z0 := 0.4 * float64(nz) * h
	f := func(z float64) float64 {
		dz := z - z0
		return math.Exp(-dz * dz / (2 * sigma * sigma))
	}
	// Upward (toward z low, the surface): w = f(z + vp t), szz = rho*vp*f.
	c := mat.Vp
	lam := mat.Rho*mat.Vp*mat.Vp - 2*mat.Rho*mat.Vs*mat.Vs
	s := fd.NewState(d)
	g := grid.Ghost
	for k := -g; k < d.NZ+g; k++ {
		for j := -g; j < d.NY+g; j++ {
			for i := -g; i < d.NX+g; i++ {
				zw := (float64(k) + 0.5) * h // w position
				s.VZ.Set(i, j, k, float32(f(zw)))
				zs := float64(k) * h // normal stress, t=+dt/2
				s.ZZ.Set(i, j, k, float32(mat.Rho*c*f(zs+c*dt/2)))
				s.XX.Set(i, j, k, float32(lam/c*f(zs+c*dt/2)))
				s.YY.Set(i, j, k, float32(lam/c*f(zs+c*dt/2)))
			}
		}
	}

	peak0 := s.VZ.MaxAbs()
	box := fd.FullBox(d)
	// Travel time to the surface and back to z0.
	total := int((2 * z0) / c / dt)
	var surfMax float32
	for n := 0; n < total; n++ {
		exchangeAxes(s, grid.X, grid.Y)
		fd.UpdateVelocity(s, m, dt, box, fd.Precomp, fd.Blocking{})
		fs.ApplyVelocity(s, m)
		exchangeAxes(s, grid.X, grid.Y)
		fd.UpdateStress(s, m, dt, box, fd.Precomp, fd.Blocking{})
		fs.ApplyStress(s)
		if v := abs32(s.VZ.At(3, 3, 0)); v > surfMax {
			surfMax = v
		}
	}
	// (a) velocity doubling at the surface;
	if surfMax < 1.8*peak0 || surfMax > 2.2*peak0 {
		t.Errorf("surface peak %g, want ~2x incident %g", surfMax, peak0)
	}
	// (b) reflected pulse retains amplitude near z0 (within 10%: some
	// spread is expected from dispersion and the 2nd-order images).
	var reflPeak float32
	for k := int(z0/h) - 20; k < int(z0/h)+20; k++ {
		if v := abs32(s.VZ.At(3, 3, k)); v > reflPeak {
			reflPeak = v
		}
	}
	if reflPeak < 0.9*peak0 || reflPeak > 1.1*peak0 {
		t.Errorf("reflected peak %g, want ~%g", reflPeak, peak0)
	}
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// TestClassicPMLUnstableMPMLStable demonstrates the §II.D claim that
// motivated the multi-axial PML: under strong media gradients inside the
// boundary zones, the classic split-field PML (parallel damping ratio
// p = 0) is exponentially unstable, while the M-PML (p = 0.1) remains
// stable and absorbing (Meza-Fajardo & Papageorgiou 2008).
func TestClassicPMLUnstableMPMLStable(t *testing.T) {
	if testing.Short() {
		t.Skip("3000-step instability demonstration; skipped in -short")
	}
	t.Parallel()
	// The classic arm stops once it has passed the instability gate: the
	// M-PML arm is held to 0.1 below, so 10 is 100x any passing M-PML
	// energy, and the growth is exponential (about e per 100 steps).
	const mpmlBound = 0.1
	classic := layeredPMLRun(t, 0, 3000, 100*mpmlBound)
	mpml := mpmlLongRunEnergy(t)
	t.Logf("velocity energy: classic PML %.3e (stopped past the gate), M-PML %.3e after 3000 steps", classic, mpml)
	if !(classic > 100*mpml) || classic < 1 {
		t.Errorf("classic PML did not go unstable (E=%g); the M-PML motivation should reproduce", classic)
	}
	if !(mpml <= mpmlBound) {
		t.Errorf("M-PML energy %g: should have absorbed the impulse", mpml)
	}
}

// DampBox over any partition of the owned box, the parts damped in any order
// or concurrently, must store on the owned cells the bits ApplyPool stores
// there, and leave every ghost alone.
func TestSpongeDampBoxMatchesApplyPool(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, c := range []struct {
		name          string
		local, global grid.Dims
		off           [3]int
		width         int
	}{
		{"hi-x-zone", grid.Dims{NX: 18, NY: 13, NZ: 11}, grid.Dims{NX: 36, NY: 13, NZ: 11}, [3]int{18, 0, 0}, 6},
		{"both-x-zones", grid.Dims{NX: 29, NY: 17, NZ: 9}, grid.Dims{NX: 29, NY: 17, NZ: 9}, [3]int{}, 5},
		{"no-x-zone", grid.Dims{NX: 10, NY: 13, NZ: 11}, grid.Dims{NX: 60, NY: 13, NZ: 11}, [3]int{26, 0, 0}, 6},
		{"overlapping-zones", grid.Dims{NX: 9, NY: 7, NZ: 6}, grid.Dims{NX: 9, NY: 7, NZ: 6}, [3]int{}, 7},
	} {
		sp := NewSpongeGlobal(c.local, c.global, c.off, c.width, 0.1, AllAbsorbing())
		fill := func() *fd.State {
			s := fd.NewState(c.local)
			for fi, f := range s.Fields() {
				for n := range f.Data() {
					f.Data()[n] = float32(fi+1) * float32(n%97-48) * 1.37
				}
			}
			return s
		}
		want, before := fill(), fill()
		sp.ApplyPool(want, nil)
		for trial := 0; trial < 6; trial++ {
			parts := partition(rng, fd.FullBox(c.local), 1+rng.Intn(12))
			rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
			p := sched.NewPool(1 + trial%3)
			got := fill()
			fields := got.Fields()
			p.ForEachN(len(parts), func(n int) { sp.DampBox(fields, parts[n]) })
			p.Close()
			for fi, f := range fields {
				w, b := want.Fields()[fi], before.Fields()[fi]
				for k := -grid.Ghost; k < c.local.NZ+grid.Ghost; k++ {
					for j := -grid.Ghost; j < c.local.NY+grid.Ghost; j++ {
						for i := -grid.Ghost; i < c.local.NX+grid.Ghost; i++ {
							ref := b
							if i >= 0 && i < c.local.NX && j >= 0 && j < c.local.NY && k >= 0 && k < c.local.NZ {
								ref = w
							}
							if g, r := f.At(i, j, k), ref.At(i, j, k); math.Float32bits(g) != math.Float32bits(r) {
								t.Fatalf("%s trial %d (%d parts): %s(%d,%d,%d) = %g, want %g",
									c.name, trial, len(parts), fd.FieldNames[fi], i, j, k, g, r)
							}
						}
					}
				}
			}
		}
	}
}

// partition cuts b into n boxes (fewer if b runs out of cells to cut) by
// random axis-aligned splits.
func partition(rng *rand.Rand, b fd.Box, n int) []fd.Box {
	parts := []fd.Box{b}
	for tries := 0; len(parts) < n && tries < 100; tries++ {
		i := rng.Intn(len(parts))
		p, q := parts[i], parts[i]
		lo := [3]*int{&p.I0, &p.J0, &p.K0}
		hi := [3]*int{&p.I1, &p.J1, &p.K1}
		qlo := [3]*int{&q.I0, &q.J0, &q.K0}
		ax := rng.Intn(3)
		if *hi[ax]-*lo[ax] < 2 {
			continue
		}
		cut := *lo[ax] + 1 + rng.Intn(*hi[ax]-*lo[ax]-1)
		*hi[ax], *qlo[ax] = cut, cut
		parts[i] = p
		parts = append(parts, q)
	}
	return parts
}

// TestSpongeWalkerMatchesGo holds the 8-lane walker to the Go row loop, bit
// for bit: rows of 1–17, 20, 28 and 56 values (below 8, the walker's
// 0-vector-cell path, all of it its scalar tail), starting in an x zone and
// in the middle where fx is 1, on rows whose fy·fz is 1 and is not, over
// values holding ±0, a subnormal, ±Inf and NaN; and the stride gap between
// rows untouched.
func TestSpongeWalkerMatchesGo(t *testing.T) {
	if !fd.Vector {
		t.Skip("no 8-lane walker on this host")
	}
	sp := NewSpongeGlobal(grid.Dims{NX: 80, NY: 4, NZ: 4}, grid.Dims{NX: 80, NY: 4, NZ: 4}, [3]int{}, 8, 0.1, AllAbsorbing())
	fx := sp.axes.fx
	fy := []float32{1, sp.taper[3], 1, sp.taper[0], sp.taper[7]}
	special := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), math.Float32frombits(0x807fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 3.5e-38, -7.25, 1e30}
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 28, 56}
	for _, n := range lengths {
		for _, p0 := range []int{0, 3, 10, 20, len(fx) - n} {
			for _, fz := range []float32{1, sp.taper[5]} {
				stride := n + 3
				rows := len(fy)
				x := make([]float32, rows*stride)
				for i := range x {
					x[i] = special[(i*7+n+p0)%len(special)] * float32(1+i%5)
				}
				want := slices.Clone(x)
				got := slices.Clone(x)
				dampRows(want, stride, fx[p0:p0+n], fy, fz, false)
				dampRows(got, stride, fx[p0:p0+n], fy, fz, true)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("n %d p0 %d fz %g: value %d (row %d) = %#x, Go stores %#x",
							n, p0, fz, i, i/stride, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
					if i%stride >= n && math.Float32bits(got[i]) != math.Float32bits(x[i]) {
						t.Fatalf("n %d p0 %d: gap value %d changed", n, p0, i)
					}
				}
			}
		}
	}
}

// ApplyPool must reproduce Apply bit-exactly: planes are disjoint rows of
// the padded arrays, so scheduling cannot change the arithmetic.
func TestSpongeApplyPoolBitIdentical(t *testing.T) {
	d := grid.Dims{NX: 18, NY: 13, NZ: 11}
	fill := func() *fd.State {
		s := fd.NewState(d)
		for fi, f := range s.Fields() {
			data := f.Data()
			for n := range data {
				data[n] = float32(fi+1) * float32(n%97-48)
			}
		}
		return s
	}
	sp := NewSpongeGlobal(d, grid.Dims{NX: 36, NY: 13, NZ: 11}, [3]int{18, 0, 0},
		6, 0.1, AllAbsorbing())
	ref := fill()
	sp.ApplyPool(ref, nil)
	for _, threads := range []int{2, 4, 9} {
		p := sched.NewPool(threads)
		s := fill()
		sp.ApplyPool(s, p)
		p.Close()
		for fi, f := range s.Fields() {
			a, b := f.Data(), ref.Fields()[fi].Data()
			for n := range a {
				if a[n] != b[n] {
					t.Fatalf("threads=%d field %d idx %d: %g != %g", threads, fi, n, a[n], b[n])
				}
			}
		}
	}
	// Uniform fast path: a subgrid far from every absorbing zone is left
	// untouched without visiting any plane.
	far := NewSpongeGlobal(grid.Dims{NX: 4, NY: 4, NZ: 4}, grid.Dims{NX: 100, NY: 100, NZ: 100},
		[3]int{48, 48, 48}, 5, 0.1, AllAbsorbing())
	s := fill2(grid.Dims{NX: 4, NY: 4, NZ: 4})
	before := append([]float32(nil), s.VX.Data()...)
	far.ApplyPool(s, nil)
	for n := range before {
		if s.VX.Data()[n] != before[n] {
			t.Fatal("interior subgrid modified")
		}
	}
}

// The sponge damps a plane as whole rows, and as x zones only on the rows
// whose fy·fz is 1; every stored bit must equal the pointwise definition
// v *= fx*(fy*fz), skipped where that factor is 1 — for ranks holding both,
// one, or neither x-zone, and for zones that overlap — through the Go loop
// (what a host without AVX2 runs) and the 8-lane walker.
func TestSpongeMatchesPointwiseTaper(t *testing.T) {
	cases := []struct {
		name          string
		local, global grid.Dims
		off           [3]int
		width         int
	}{
		{"both-x-zones", grid.Dims{NX: 18, NY: 13, NZ: 11}, grid.Dims{NX: 18, NY: 13, NZ: 11}, [3]int{}, 5},
		{"hi-x-zone", grid.Dims{NX: 18, NY: 13, NZ: 11}, grid.Dims{NX: 36, NY: 13, NZ: 11}, [3]int{18, 0, 0}, 6},
		{"lo-x-zone", grid.Dims{NX: 18, NY: 13, NZ: 11}, grid.Dims{NX: 36, NY: 13, NZ: 11}, [3]int{}, 6},
		{"no-x-zone", grid.Dims{NX: 8, NY: 13, NZ: 11}, grid.Dims{NX: 60, NY: 13, NZ: 11}, [3]int{26, 0, 0}, 6},
		{"overlapping-zones", grid.Dims{NX: 9, NY: 7, NZ: 6}, grid.Dims{NX: 9, NY: 7, NZ: 6}, [3]int{}, 7},
	}
	for _, c := range cases {
		for _, vec := range []bool{false, fd.Vector} {
			sp := NewSpongeGlobal(c.local, c.global, c.off, c.width, 0.1, AllAbsorbing())
			sp.axes.vec = vec
			factor := func(i, j, k int) float32 {
				fx := sp.factorAxis(clampIdx(c.off[0]+i, c.global.NX), c.global.NX, sp.Faces.XLo, sp.Faces.XHi)
				fy := sp.factorAxis(clampIdx(c.off[1]+j, c.global.NY), c.global.NY, sp.Faces.YLo, sp.Faces.YHi)
				fz := sp.factorAxis(clampIdx(c.off[2]+k, c.global.NZ), c.global.NZ, sp.Faces.ZLo, sp.Faces.ZHi)
				return fx * (fy * fz)
			}
			s := fd.NewState(c.local)
			f := s.XY
			data := f.Data()
			for n := range data {
				data[n] = float32(n%97-48) * 1.37
			}
			before := append([]float32(nil), data...)
			sp.ApplyPool(s, nil)
			g := grid.Ghost
			for k := -g; k < c.local.NZ+g; k++ {
				for j := -g; j < c.local.NY+g; j++ {
					for i := -g; i < c.local.NX+g; i++ {
						n := f.Idx(i, j, k)
						want := before[n]
						if w := factor(i, j, k); w != 1 {
							want *= w
						}
						if got := data[n]; math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("%s vec %v (%d,%d,%d): got %g, want %g", c.name, vec, i, j, k, got, want)
						}
					}
				}
			}
		}
	}
}

func fill2(d grid.Dims) *fd.State {
	s := fd.NewState(d)
	for _, f := range s.Fields() {
		data := f.Data()
		for n := range data {
			data[n] = float32(n%13) + 1
		}
	}
	return s
}

// refPMLShell is the shell the pointwise reference's zones lie in: the
// subgrid's dims, its absorbing faces and the slabs' width.
type refPMLShell struct {
	d     grid.Dims
	faces FaceSet
	width int
}

// refPMLCoef holds a cell's coefficients, per split.
type refPMLCoef struct{ dec, gain [3]float32 }

// refPMLCoefTable returns pm's coefficients at dt by owner axis and depth.
func refPMLCoefTable(pm *PML, dt float64) [3][]refPMLCoef {
	var coef [3][]refPMLCoef
	for ax := range coef {
		coef[ax] = make([]refPMLCoef, len(pm.damp))
		for l, d := range pm.damp {
			c := &coef[ax][l]
			for s := 0; s < 3; s++ {
				ds := pm.P * d
				if s == ax {
					ds = d
				}
				half := float64(ds * dt / 2)
				den := 1 + half
				c.dec[s] = float32((1 - half) / den)
				c.gain[s] = float32(1 / den)
			}
		}
	}
	return coef
}

// refPMLOwner returns the slab that owns cell (i,j,k) of the shell — the
// first of x, y and z whose slab on an absorbing face holds it — and the
// cell's depth from that face; ok is false for a cell of no slab.
func refPMLOwner(sh refPMLShell, i, j, k int) (ax grid.Axis, depth int, ok bool) {
	at := [3]int{i, j, k}
	n := [3]int{sh.d.NX, sh.d.NY, sh.d.NZ}
	on := [3][2]bool{{sh.faces.XLo, sh.faces.XHi}, {sh.faces.YLo, sh.faces.YHi}, {sh.faces.ZLo, sh.faces.ZHi}}
	for a := 0; a < 3; a++ {
		if on[a][0] && at[a] < sh.width {
			return grid.Axis(a), at[a], true
		}
		if on[a][1] && at[a] >= n[a]-sh.width {
			return grid.Axis(a), n[a] - 1 - at[a], true
		}
	}
	return 0, 0, false
}

// refPMLCellCoef returns the entry of coef for shell cell (i,j,k): its
// owner's at its depth.
func refPMLCellCoef(coef [3][]refPMLCoef, sh refPMLShell, i, j, k int) *refPMLCoef {
	ax, l, ok := refPMLOwner(sh, i, j, k)
	if !ok {
		panic(fmt.Sprintf("cell (%d,%d,%d) lies in no slab of the shell", i, j, k))
	}
	return &coef[ax][l]
}

// refPMLUpdateVelocity is the pointwise zone update the row kernels
// replaced (PR 15's body, unchanged): the oracle they must match bit for
// bit.
func refPMLUpdateVelocity(pm *PML, sh refPMLShell, s *fd.State, m *medium.Medium, dt float64) {
	c1, c2 := float32(fd.C1), float32(fd.C2)
	dth := float32(dt / m.H)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	bx, by, bz := m.BX.Data(), m.BY.Data(), m.BZ.Data()
	dx, dy, dz := s.VX.Strides()
	z := pm.Zone
	coef := refPMLCoefTable(pm, dt)

	for k := z.K0; k < z.K1; k++ {
		for j := z.J0; j < z.J1; j++ {
			for i := z.I0; i < z.I1; i++ {
				n, c := s.VX.Idx(i, j, k), m.Lam.Idx(i, j, k)
				li, lj, lk := i-z.I0, j-z.J0, k-z.K0
				cf := refPMLCellCoef(coef, sh, i, j, k)

				// Directional force terms (already scaled by dt/h and 1/rho).
				uTx := dth * bx[c] * (c1*(xx[n+dx]-xx[n]) + c2*(xx[n+2*dx]-xx[n-dx]))
				uTy := dth * bx[c] * (c1*(xy[n]-xy[n-dy]) + c2*(xy[n+dy]-xy[n-2*dy]))
				uTz := dth * bx[c] * (c1*(xz[n]-xz[n-dz]) + c2*(xz[n+dz]-xz[n-2*dz]))
				vTx := dth * by[c] * (c1*(xy[n]-xy[n-dx]) + c2*(xy[n+dx]-xy[n-2*dx]))
				vTy := dth * by[c] * (c1*(yy[n+dy]-yy[n]) + c2*(yy[n+2*dy]-yy[n-dy]))
				vTz := dth * by[c] * (c1*(yz[n]-yz[n-dz]) + c2*(yz[n+dz]-yz[n-2*dz]))
				wTx := dth * bz[c] * (c1*(xz[n]-xz[n-dx]) + c2*(xz[n+dx]-xz[n-2*dx]))
				wTy := dth * bz[c] * (c1*(yz[n]-yz[n-dy]) + c2*(yz[n+dy]-yz[n-2*dy]))
				wTz := dth * bz[c] * (c1*(zz[n+dz]-zz[n]) + c2*(zz[n+2*dz]-zz[n-dz]))

				var sum [3]float32
				for sdir := 0; sdir < 3; sdir++ {
					sp := pm.split[sdir]
					var tU, tV, tW float32
					switch sdir {
					case 0:
						tU, tV, tW = uTx, vTx, wTx
					case 1:
						tU, tV, tW = uTy, vTy, wTy
					default:
						tU, tV, tW = uTz, vTz, wTz
					}
					nu := fd.Quiesce(cf.dec[sdir]*sp.VX.At(li, lj, lk) + cf.gain[sdir]*tU)
					nv := fd.Quiesce(cf.dec[sdir]*sp.VY.At(li, lj, lk) + cf.gain[sdir]*tV)
					nw := fd.Quiesce(cf.dec[sdir]*sp.VZ.At(li, lj, lk) + cf.gain[sdir]*tW)
					sp.VX.Set(li, lj, lk, nu)
					sp.VY.Set(li, lj, lk, nv)
					sp.VZ.Set(li, lj, lk, nw)
					sum[0] += nu
					sum[1] += nv
					sum[2] += nw
				}
				u[n], v[n], w[n] = fd.Quiesce(sum[0]), fd.Quiesce(sum[1]), fd.Quiesce(sum[2])
			}
		}
	}
}

// refPMLUpdateStress is the pointwise stress counterpart.
func refPMLUpdateStress(pm *PML, sh refPMLShell, s *fd.State, m *medium.Medium, dt float64) {
	c1, c2 := float32(fd.C1), float32(fd.C2)
	dth := float32(dt / m.H)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	lam, l2m := m.Lam.Data(), m.Lam2Mu.Data()
	mxy, mxz, myz := m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data()
	dx, dy, dz := s.VX.Strides()
	z := pm.Zone
	coef := refPMLCoefTable(pm, dt)

	for k := z.K0; k < z.K1; k++ {
		for j := z.J0; j < z.J1; j++ {
			for i := z.I0; i < z.I1; i++ {
				n, c := s.VX.Idx(i, j, k), m.Lam.Idx(i, j, k)
				li, lj, lk := i-z.I0, j-z.J0, k-z.K0
				cf := refPMLCellCoef(coef, sh, i, j, k)

				exx := dth * (c1*(u[n]-u[n-dx]) + c2*(u[n+dx]-u[n-2*dx]))
				eyy := dth * (c1*(v[n]-v[n-dy]) + c2*(v[n+dy]-v[n-2*dy]))
				ezz := dth * (c1*(w[n]-w[n-dz]) + c2*(w[n+dz]-w[n-2*dz]))
				duy := dth * (c1*(u[n+dy]-u[n]) + c2*(u[n+2*dy]-u[n-dy]))
				dvx := dth * (c1*(v[n+dx]-v[n]) + c2*(v[n+2*dx]-v[n-dx]))
				duz := dth * (c1*(u[n+dz]-u[n]) + c2*(u[n+2*dz]-u[n-dz]))
				dwx := dth * (c1*(w[n+dx]-w[n]) + c2*(w[n+2*dx]-w[n-dx]))
				dvz := dth * (c1*(v[n+dz]-v[n]) + c2*(v[n+2*dz]-v[n-dz]))
				dwy := dth * (c1*(w[n+dy]-w[n]) + c2*(w[n+2*dy]-w[n-dy]))

				// Per-direction contributions to each stress component.
				type contrib struct{ tx, ty, tz float32 }
				cXX := contrib{l2m[c] * exx, lam[c] * eyy, lam[c] * ezz}
				cYY := contrib{lam[c] * exx, l2m[c] * eyy, lam[c] * ezz}
				cZZ := contrib{lam[c] * exx, lam[c] * eyy, l2m[c] * ezz}
				cXY := contrib{mxy[c] * dvx, mxy[c] * duy, 0}
				cXZ := contrib{mxz[c] * dwx, 0, mxz[c] * duz}
				cYZ := contrib{0, myz[c] * dwy, myz[c] * dvz}

				var sXX, sYY, sZZ, sXY, sXZ, sYZ float32
				for sdir := 0; sdir < 3; sdir++ {
					sp := pm.split[sdir]
					pick := func(c contrib) float32 {
						switch sdir {
						case 0:
							return c.tx
						case 1:
							return c.ty
						default:
							return c.tz
						}
					}
					// Split `none` of a shear stress takes no term (its contrib
					// is 0): it is not stored and adds nothing.
					upd := func(f *grid.Field3, c contrib, sum *float32, none int) {
						if sdir == none {
							return
						}
						n := cf.dec[sdir]*f.At(li, lj, lk) + cf.gain[sdir]*pick(c)
						f.Set(li, lj, lk, n)
						*sum += n
					}
					upd(sp.XX, cXX, &sXX, -1)
					upd(sp.YY, cYY, &sYY, -1)
					upd(sp.ZZ, cZZ, &sZZ, -1)
					upd(sp.XY, cXY, &sXY, 2)
					upd(sp.XZ, cXZ, &sXZ, 1)
					upd(sp.YZ, cYZ, &sYZ, 0)
				}
				xx[n], yy[n], zz[n] = sXX, sYY, sZZ
				xy[n], xz[n], yz[n] = sXY, sXZ, sYZ
			}
		}
	}
}

// randomValue draws ±(1+r)·2^e, or one time in eight an exact ±0.
func randomValue(rng *rand.Rand, e int) float32 {
	sign := float64(1 - 2*rng.Intn(2))
	if rng.Intn(8) == 0 {
		return float32(sign * 0)
	}
	return float32(sign * math.Ldexp(1+rng.Float64(), e))
}

// fillFront fills every field, ghosts included, with a front decaying along
// the flat index (so mostly along z) from 2^8 to 2^-140: like the precursor
// of a real wavefield, each value's neighbours are within a few binades of
// it, so where the front crosses the quiescence floor (2^-100) the splits
// and their sums land on either side of it, and below 2^-126 the state is
// subnormal.
func fillFront(rng *rand.Rand, fields []*grid.Field3) {
	for _, f := range fields {
		data := f.Data()
		for n := range data {
			data[n] = randomValue(rng, 8-148*n/len(data)+rng.Intn(2))
		}
	}
}

// scatter overwrites about one value in `every` of every field with a value
// whose binade is uniform over [2^-140, 2^8), whatever its neighbours hold.
func scatter(rng *rand.Rand, every int, fields []*grid.Field3) {
	for _, f := range fields {
		data := f.Data()
		for n := rng.Intn(every); n < len(data); n += 1 + rng.Intn(2*every) {
			data[n] = randomValue(rng, rng.Intn(148)-140)
		}
	}
}

// pmlFields lists the 9 global fields of s and the 24 split fields of each
// zone, with names for failure messages.
func pmlFields(s *fd.State, zones []*PML) (fields []*grid.Field3, names []string) {
	fields = s.Fields()
	names = append(names, fd.FieldNames...)
	for zi, z := range zones {
		for si, sp := range z.split {
			for fi, f := range sp.Fields() {
				if f == nil {
					continue // a split that takes no term is not stored
				}
				fields = append(fields, f)
				names = append(names, fmt.Sprintf("zone%d(%v,%v).split%d.%s", zi, z.Axis, z.Side, si, fd.FieldNames[fi]))
			}
		}
	}
	return fields, names
}

// firstBitDiff returns the name and flat index of the first value whose bit
// pattern differs between the two field lists, or "" when none does.
func firstBitDiff(a, b []*grid.Field3, names []string) (string, int) {
	for fi := range a {
		da, db := a[fi].Data(), b[fi].Data()
		for n := range da {
			if math.Float32bits(da[n]) != math.Float32bits(db[n]) {
				return names[fi], n
			}
		}
	}
	return "", 0
}

// TestPMLRowsMatchPointwise steps the row kernels beside the pointwise
// reference they replaced — interior kernel, zones, free surface, as the
// solver orders them — over states re-seeded as it goes with
// random-exponent values (fillFront, scatter), and demands bit equality of all 9 global and 24
// split fields of each zone after every step. The row side runs each zone as tiles cut
// once more in x, so windows that start inside the zone are covered too, through
// the Go row loop (what a host without AVX2 runs) and the 8-lane walkers.
func TestPMLRowsMatchPointwise(t *testing.T) {
	d := grid.Dims{NX: 22, NY: 19, NZ: 17}
	h := 100.0
	m := makeMedium(t, cvm.SoCal(2200, 1900, 1700, 400), d, h)
	dt := m.StableDt(0.45)
	allSix := AllAbsorbing()
	allSix.ZLo = true
	for _, tc := range []struct {
		name  string
		faces FaceSet
		zones int
	}{{"six-zones", allSix, 6}, {"free-surface-shell", AllAbsorbing(), 5}} {
		for _, p := range []float64{0, DefaultMPMLRatio} {
			for _, vec := range []bool{false, fd.Vector} {
				label := fmt.Sprintf("%s p=%g vec %v", tc.name, p, vec)
				sh := refPMLShell{d: d, faces: tc.faces, width: 4}
				refZones, interior := BuildPML(d, tc.faces, sh.width, p, DefaultPMLReflection, m.MaxVp, h)
				rowZones, _ := BuildPML(d, tc.faces, sh.width, p, DefaultPMLReflection, m.MaxVp, h)
				if len(refZones) != tc.zones {
					t.Fatalf("%s: %d zones, want %d", label, len(refZones), tc.zones)
				}
				ref, row := fd.NewState(d), fd.NewState(d)
				refF, names := pmlFields(ref, refZones)
				rowF, _ := pmlFields(row, rowZones)
				var fsf *FreeSurface
				if !tc.faces.ZLo {
					fsf = NewFreeSurface(d)
				}
				var tiles [][]fd.Box
				for _, z := range rowZones {
					z.Prepare(dt)
					var zt []fd.Box
					for _, b := range fd.Tiles(z.Zone, fd.Blocking{JBlock: 3, KBlock: 5}) {
						cut := b.I0 + (b.I1-b.I0)/3
						lo, hi := b, b
						lo.I1, hi.I0 = cut, cut
						zt = append(zt, hi, lo) // hi first: order must not matter
					}
					tiles = append(tiles, zt)
				}
				seed := int64(p*100) + int64(tc.zones)
				for step := 1; step <= 32; step++ {
					// A fresh front every eighth step (large values spread a
					// cell a step and would bury it), strays every step.
					for _, fields := range [][]*grid.Field3{refF, rowF} {
						rng := rand.New(rand.NewSource(seed + int64(step)))
						if step%8 == 1 {
							fillFront(rng, fields)
						}
						scatter(rng, 50, fields)
					}

					fd.UpdateVelocity(ref, m, dt, interior, fd.Precomp, fd.Blocking{})
					fd.UpdateVelocity(row, m, dt, interior, fd.Precomp, fd.Blocking{})
					for zi, z := range refZones {
						refPMLUpdateVelocity(z, sh, ref, m, dt)
						for _, b := range tiles[zi] {
							rowZones[zi].velocitySweep(row, m, dt, b, vec)
						}
					}
					if fsf != nil {
						fsf.ApplyVelocity(ref, m)
						fsf.ApplyVelocity(row, m)
					}
					fd.UpdateStress(ref, m, dt, interior, fd.Precomp, fd.Blocking{})
					fd.UpdateStress(row, m, dt, interior, fd.Precomp, fd.Blocking{})
					for zi, z := range refZones {
						refPMLUpdateStress(z, sh, ref, m, dt)
						for _, b := range tiles[zi] {
							rowZones[zi].stressSweep(row, m, dt, b, vec)
						}
					}
					if fsf != nil {
						fsf.ApplyStress(ref)
						fsf.ApplyStress(row)
					}
					if name, n := firstBitDiff(refF, rowF, names); name != "" {
						t.Fatalf("%s step %d: %s differs at flat index %d", label, step, name, n)
					}
				}
				if !finite32(ref.MaxAbs()) {
					t.Fatalf("%s: state went non-finite; the comparison lost its meaning", label)
				}
			}
		}
	}
}

func finite32(v float32) bool { return !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) }

// partitionBox cuts b into disjoint boxes by random recursive bisection
// along random axes and returns them in random order.
func partitionBox(rng *rand.Rand, b fd.Box, depth int) []fd.Box {
	var out []fd.Box
	var cut func(b fd.Box, depth int)
	cut = func(b fd.Box, depth int) {
		lo, hi := [3]int{b.I0, b.J0, b.K0}, [3]int{b.I1, b.J1, b.K1}
		ax := rng.Intn(3)
		if depth == 0 || hi[ax]-lo[ax] < 2 {
			out = append(out, b)
			return
		}
		at := lo[ax] + 1 + rng.Intn(hi[ax]-lo[ax]-1)
		l, r := b, b
		switch ax {
		case 0:
			l.I1, r.I0 = at, at
		case 1:
			l.J1, r.J0 = at, at
		default:
			l.K1, r.K0 = at, at
		}
		cut(l, depth-1)
		cut(r, depth-1)
	}
	cut(b, depth)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// FuzzPMLBoxPartition checks the property the solver's tile queue rests on:
// a zone updated box by box over any disjoint partition, in any order, holds
// the same bits as the zone updated whole.
func FuzzPMLBoxPartition(f *testing.F) {
	for zone := uint8(0); zone < 6; zone++ {
		f.Add(int64(zone)+1, zone, uint8(1+zone))
	}
	f.Add(int64(99), uint8(2), uint8(0))
	d := grid.Dims{NX: 13, NY: 12, NZ: 11}
	h := 100.0
	m := makeMedium(f, cvm.SoCal(1300, 1200, 1100, 400), d, h)
	dt := m.StableDt(0.45)
	faces := AllAbsorbing()
	faces.ZLo = true
	f.Fuzz(func(t *testing.T, seed int64, zone, depth uint8) {
		zi, depthN := int(zone%6), int(depth%7)
		whole, _ := BuildPML(d, faces, 3, DefaultMPMLRatio, DefaultPMLReflection, m.MaxVp, h)
		parts, _ := BuildPML(d, faces, 3, DefaultMPMLRatio, DefaultPMLReflection, m.MaxVp, h)
		sw, sp := fd.NewState(d), fd.NewState(d)
		fw, names := pmlFields(sw, whole[zi:zi+1])
		fp, _ := pmlFields(sp, parts[zi:zi+1])
		for _, fields := range [][]*grid.Field3{fw, fp} {
			rng := rand.New(rand.NewSource(seed))
			fillFront(rng, fields)
			scatter(rng, 50, fields)
		}

		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		zw, zp := whole[zi], parts[zi]
		zp.Prepare(dt)
		zw.UpdateVelocity(sw, m, dt)
		for _, b := range partitionBox(rng, zp.Zone, depthN) {
			zp.UpdateVelocityBox(sp, m, dt, b)
		}
		zw.UpdateStress(sw, m, dt)
		for _, b := range partitionBox(rng, zp.Zone, depthN) {
			zp.UpdateStressBox(sp, m, dt, b)
		}
		if name, n := firstBitDiff(fw, fp, names); name != "" {
			t.Fatalf("seed %d zone %d depth %d: %s differs at flat index %d", seed, zi, depthN, name, n)
		}
	})
}
