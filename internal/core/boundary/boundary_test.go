package boundary

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
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
			buf := make([]float32, f.FaceLen(ax, grid.Ghost))
			f.PackFace(ax, grid.High, grid.Ghost, buf)
			f.UnpackFace(ax, grid.Low, grid.Ghost, buf)
			f.PackFace(ax, grid.Low, grid.Ghost, buf)
			f.UnpackFace(ax, grid.High, grid.Ghost, buf)
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
		f.Fill(1)
	}
	sp.Apply(s)
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
				sp.Apply(s)
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
	energy := func() float64 { return s.VX.SumSq() + s.VY.SumSq() + s.VZ.SumSq() }
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
	sp.Apply(ref)
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

// The row sweep splits each x-row into taper zones and a constant middle;
// every stored bit must equal the pointwise definition v *= fx*(fy*fz),
// skipped where that factor is 1 — for ranks holding both, one, or neither
// x-zone, for zones that overlap, and for a deep-ghost box that starts and
// ends inside a row.
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
		sp := NewSpongeGlobal(c.local, c.global, c.off, c.width, 0.1, AllAbsorbing())
		factor := func(i, j, k int) float32 {
			fx := sp.factorAxis(clampIdx(c.off[0]+i, c.global.NX), c.global.NX, sp.Faces.XLo, sp.Faces.XHi)
			fy := sp.factorAxis(clampIdx(c.off[1]+j, c.global.NY), c.global.NY, sp.Faces.YLo, sp.Faces.YHi)
			fz := sp.factorAxis(clampIdx(c.off[2]+k, c.global.NZ), c.global.NZ, sp.Faces.ZLo, sp.Faces.ZHi)
			return fx * (fy * fz)
		}
		check := func(what string, f *grid.Field3, before []float32, box fd.Box) {
			t.Helper()
			g := f.G()
			for k := -g; k < c.local.NZ+g; k++ {
				for j := -g; j < c.local.NY+g; j++ {
					for i := -g; i < c.local.NX+g; i++ {
						n := f.Idx(i, j, k)
						want := before[n]
						in := i >= box.I0 && i < box.I1 && j >= box.J0 && j < box.J1 && k >= box.K0 && k < box.K1
						if w := factor(i, j, k); in && w != 1 {
							want *= w
						}
						if got := f.Data()[n]; math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("%s %s (%d,%d,%d): got %g, want %g", c.name, what, i, j, k, got, want)
						}
					}
				}
			}
		}
		fillField := func(f *grid.Field3) []float32 {
			data := f.Data()
			for n := range data {
				data[n] = float32(n%97-48) * 1.37
			}
			return append([]float32(nil), data...)
		}

		s := fd.NewState(c.local)
		before := fillField(s.XY)
		sp.Apply(s)
		g := grid.Ghost
		check("Apply", s.XY, before, fd.Box{I0: -g, I1: c.local.NX + g, J0: -g, J1: c.local.NY + g, K0: -g, K1: c.local.NZ + g})

		deep := grid.NewField3G(c.local, 5)
		before = fillField(deep)
		box := fd.Box{I0: -3, I1: c.local.NX - 2, J0: -5, J1: c.local.NY + 1, K0: 1, K1: c.local.NZ + 4}
		sp.ApplyBoxFields([]*grid.Field3{deep}, box, nil)
		check("ApplyBoxFields", deep, before, box)
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

// ApplySurfaceFused must damp exactly like ApplyPool and call the surface
// hook once per interior row every step — including on subgrids the
// uniform fast path would otherwise skip entirely.
func TestSpongeApplySurfaceFusedBitIdentical(t *testing.T) {
	d := grid.Dims{NX: 18, NY: 13, NZ: 11}
	fill := func() *fd.State {
		s := fd.NewState(d)
		for fi, f := range s.Fields() {
			data := f.Data()
			for n := range data {
				data[n] = float32(fi+1) * float32(n%89-44)
			}
		}
		return s
	}
	sp := NewSpongeGlobal(d, grid.Dims{NX: 36, NY: 13, NZ: 11}, [3]int{18, 0, 0},
		6, 0.1, AllAbsorbing())
	ref := fill()
	sp.Apply(ref)
	for _, threads := range []int{1, 3, 8} {
		p := sched.NewPool(threads)
		s := fill()
		var mu sync.Mutex
		seen := make(map[int]int)
		sp.ApplySurfaceFused(s, p, func(j int) {
			mu.Lock()
			seen[j]++
			mu.Unlock()
		})
		p.Close()
		for fi, f := range s.Fields() {
			a, b := f.Data(), ref.Fields()[fi].Data()
			for n := range a {
				if a[n] != b[n] {
					t.Fatalf("threads=%d field %d idx %d: %g != %g", threads, fi, n, a[n], b[n])
				}
			}
		}
		if len(seen) != d.NY {
			t.Fatalf("threads=%d: surface hook saw %d rows, want %d", threads, len(seen), d.NY)
		}
		for j, n := range seen {
			if j < 0 || j >= d.NY || n != 1 {
				t.Fatalf("threads=%d: row %d visited %d times", threads, j, n)
			}
		}
	}

	// Uniform fast path: no damping, but the surface hook still runs for
	// every row (the PGV fold must happen every step).
	far := NewSpongeGlobal(grid.Dims{NX: 4, NY: 4, NZ: 4}, grid.Dims{NX: 100, NY: 100, NZ: 100},
		[3]int{48, 48, 48}, 5, 0.1, AllAbsorbing())
	s := fill2(grid.Dims{NX: 4, NY: 4, NZ: 4})
	before := append([]float32(nil), s.VX.Data()...)
	rows := 0
	far.ApplySurfaceFused(s, nil, func(j int) { rows++ })
	if rows != 4 {
		t.Fatalf("uniform path ran surface hook for %d rows, want 4", rows)
	}
	for n := range before {
		if s.VX.Data()[n] != before[n] {
			t.Fatal("uniform-path subgrid modified")
		}
	}
}
