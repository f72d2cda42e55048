package solver

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/rupture"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// baseOptions builds a small wave-propagation problem with a central
// explosion source.
func baseOptions(topo mpi.Cart) Options {
	g := grid.Dims{NX: 24, NY: 24, NZ: 16}
	src := source.PointSource{
		GI: 12, GJ: 12, GK: 8,
		M0:     1e15,
		Tensor: source.Explosion,
		STF:    source.GaussianPulse(0.08, 0.02),
	}
	return Options{
		Global:      g,
		H:           100,
		Steps:       60,
		Topo:        topo,
		Comm:        Asynchronous,
		ABC:         SpongeABC,
		SpongeWidth: 4,
		FreeSurface: true,
		Attenuation: true,
		Sources:     []source.SampledSource{src.Sample(0.002, 200)},
		Receivers:   [][3]int{{6, 12, 8}, {18, 12, 8}, {12, 6, 8}, {12, 12, 2}},
		TrackPGV:    true,
	}
}

// splitXModel is a basin-over-rock toy: hard rock for x < split, a soft
// low-velocity block at x >= split, constant in y and depth.
type splitXModel struct {
	split      float64
	rock, soft cvm.Material
}

func (m splitXModel) Query(x, _, _ float64) cvm.Material {
	if x < m.split {
		return m.rock
	}
	return m.soft
}

// basinOverRock is a Vp contrast of 5200 to 1200 m/s at x = split metres.
func basinOverRock(split float64) splitXModel {
	return splitXModel{split: split,
		rock: cvm.Material{Vp: 5200, Vs: 3000, Rho: 2700},
		soft: cvm.Material{Vp: 1200, Vs: 700, Rho: 1900}}
}

// twoSidedOptions builds a wave problem with its source in the x-low
// quarter and receivers in both x halves.
func twoSidedOptions(g grid.Dims, steps int, topo mpi.Cart) Options {
	src := source.PointSource{
		GI: g.NX / 4, GJ: g.NY / 2, GK: g.NZ / 2,
		M0:     1e15,
		Tensor: source.Explosion,
		STF:    source.GaussianPulse(0.08, 0.02),
	}
	return Options{
		Global:      g,
		H:           100,
		Steps:       steps,
		Topo:        topo,
		Comm:        Asynchronous,
		ABC:         SpongeABC,
		SpongeWidth: 4,
		FreeSurface: true,
		Attenuation: true,
		Sources:     []source.SampledSource{src.Sample(0.002, 400)},
		Receivers: [][3]int{
			{g.NX / 4, g.NY / 2, 2},
			{3 * g.NX / 4, g.NY / 2, 2},
			{g.NX / 2, g.NY / 4, g.NZ / 2},
		},
		TrackPGV: true,
	}
}

// stableDtBound is the largest explicit Dt a run of opt on q accepts: the
// stable step at safety factor 1 of the medium over the whole grid, built
// on one rank.
func stableDtBound(t testing.TB, q cvm.Querier, opt Options) float64 {
	t.Helper()
	dc, err := decomp.New(opt.Global, mpi.NewCart(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return medium.FromCVM(q, dc, dc.SubFor(0), opt.H).StableDt(1)
}

// TestDtAndCFLValidation pins the Options validation of the step: a negative
// or non-finite Dt and a CFL outside [0, 1], NaN included, are rejected by
// Prepare and by Run, which panicked on a NaN or +Inf Dt or a NaN CFL (the
// source's sample index int(t/dt) out of range), and took a Dt of 1e300 to
// the same panic; an explicit Dt above the stable step at safety factor 1 is
// rejected by Run, on one rank or two, with one error; CFL 0 defaults to the
// historical 0.5 bit-identically.
func TestDtAndCFLValidation(t *testing.T) {
	base := twoSidedOptions(grid.Dims{NX: 16, NY: 12, NZ: 12}, 4, mpi.NewCart(1, 1, 1))
	q := cvm.HardRock()

	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []struct{ dt, cfl float64 }{{-0.001, 0}, {0, -0.1}, {0, 1.5},
		{nan, 0}, {inf, 0}, {-inf, 0}, {0, nan}, {0, inf}} {
		opt := base
		opt.Dt, opt.CFL = bad.dt, bad.cfl
		if _, _, err := Prepare(opt); err == nil {
			t.Errorf("Dt %g, CFL %g accepted", bad.dt, bad.cfl)
		}
		if _, err := Run(q, opt); err == nil {
			t.Errorf("Dt %g, CFL %g: Run returned no error", bad.dt, bad.cfl)
		}
	}
	ok := base
	ok.CFL = 1.0
	if _, _, err := Prepare(ok); err != nil {
		t.Errorf("CFL 1.0 rejected: %v", err)
	}
	// Prepare builds no medium, so an unstable step passes it; every rank's
	// set-up refuses it from the agreed bound. Dt 0.1 ran to a PGVH of +Inf
	// and NaN seismograms, 1e300 to an all-zero map, both without an error.
	bound := stableDtBound(t, q, base)
	for _, dt := range []float64{math.Nextafter(bound, math.Inf(1)), 0.1, 1e300} {
		var errs []string
		for _, topo := range []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 1, 1)} {
			opt := base
			opt.Dt, opt.Topo = dt, topo
			if _, _, err := Prepare(opt); err != nil {
				t.Errorf("Dt %g on %v: Prepare: %v", dt, topo, err)
			}
			_, err := Run(q, opt)
			if err == nil || !strings.Contains(err.Error(), "stable step") {
				t.Fatalf("Dt %g on %v (bound %g): Run says %v", dt, topo, bound, err)
			}
			errs = append(errs, err.Error())
		}
		if errs[0] != errs[1] {
			t.Errorf("Dt %g: one rank says %q, two %q", dt, errs[0], errs[1])
		}
	}
	atBound := base
	atBound.Dt = bound
	if _, err := Run(q, atBound); err != nil {
		t.Errorf("Dt at the bound %g: %v", bound, err)
	}

	// Explicit CFL 0.5 must reproduce the default run exactly.
	ref, err := Run(q, base)
	if err != nil {
		t.Fatal(err)
	}
	withCFL := base
	withCFL.CFL = 0.5
	res, err := Run(q, withCFL)
	if err != nil {
		t.Fatal(err)
	}
	if msg := resultDiff(ref, res); msg != "" {
		t.Errorf("cfl 0.5 vs default: %s", msg)
	}
}

func maxSeriesAbs(s [][3]float32) float64 {
	var m float64
	for _, v := range s {
		for _, c := range v {
			if a := math.Abs(float64(c)); a > m {
				m = a
			}
		}
	}
	return m
}

func TestPointSourceRadiates(t *testing.T) {
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.Telemetry = &telemetry.Options{}
	res, err := Run(cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result at rank 0")
	}
	for r, s := range res.Seismograms {
		if len(s) != 60 {
			t.Fatalf("receiver %d: %d samples, want 60", r, len(s))
		}
		if maxSeriesAbs(s) == 0 {
			t.Errorf("receiver %d recorded nothing", r)
		}
	}
	// Symmetry: an explosion in a homogeneous medium radiates
	// symmetrically; receivers on either side of the source record the
	// same peak amplitude (vx staggering shifts the two receivers by one
	// cell, so compare peaks rather than samples).
	p0 := maxSeriesAbs(res.Seismograms[0])
	p1 := maxSeriesAbs(res.Seismograms[1])
	if math.Abs(p0-p1)/math.Max(p0, p1) > 0.25 {
		t.Errorf("mirror receivers peak mismatch: %g vs %g", p0, p1)
	}
	if res.PGVH == nil {
		t.Fatal("PGV map missing")
	}
	var pgvMax float64
	for _, v := range res.PGVH {
		if v > pgvMax {
			pgvMax = v
		}
	}
	if pgvMax == 0 {
		t.Error("surface PGV all zero (free-surface wave should arrive)")
	}
	if rep := res.Telemetry; rep.Stat(telemetry.Output).Spans != int64(opt.Steps) || rep.Stat(telemetry.Velocity).Spans == 0 {
		t.Errorf("phases not recorded: %d output and %d velocity spans over %d steps",
			rep.Stat(telemetry.Output).Spans, rep.Stat(telemetry.Velocity).Spans, opt.Steps)
	}
}

func TestMPMLInSolver(t *testing.T) {
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.Global = grid.Dims{NX: 32, NY: 32, NZ: 24}
	opt.Sources = []source.SampledSource{(source.PointSource{
		GI: 16, GJ: 16, GK: 12, M0: 1e15, Tensor: source.Explosion,
		STF: source.GaussianPulse(0.08, 0.02),
	}).Sample(0.002, 200)}
	opt.Receivers = [][3]int{{16, 16, 6}}
	opt.ABC = MPMLABC
	opt.pmlWidth = 6
	opt.Steps = 120
	res, err := Run(cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), opt)
	if err != nil {
		t.Fatal(err)
	}
	// After the wave leaves, the receiver should settle to near zero (no
	// strong boundary reflections, no instability).
	tail := res.Seismograms[0][100:]
	head := res.Seismograms[0]
	peak := maxSeriesAbs(head)
	if peak == 0 {
		t.Fatal("no signal")
	}
	if maxSeriesAbs(tail) > 0.2*peak {
		t.Errorf("PML tail %g vs peak %g: reflections too strong", maxSeriesAbs(tail), peak)
	}
}

func TestDFRRejectsBadConfigs(t *testing.T) {
	opt := baseOptions(mpi.NewCart(1, 2, 1))
	opt.Fault = &FaultSpec{J0: 12, I0: 0, I1: 4, K0: 0, K1: 4,
		Tau0: [][]float64{{0}}, SigmaN: [][]float64{{0}}, Friction: [][]rupture.Friction{{{}}}}
	if _, err := Run(cvm.HardRock(), opt); err == nil {
		t.Error("DFR with PY=2 accepted")
	}
	// A window only rank 0 holds, on a plane too close to the y edge: the
	// rank that would reject it in set-up must not get the chance, or rank 1
	// waits on its halo for ever.
	opt = baseOptions(mpi.NewCart(2, 1, 1))
	opt.Fault = overstressedFault(1, 2, 6, 2, 6)
	if _, _, err := Prepare(opt); err == nil {
		t.Error("fault plane on the subgrid edge accepted by Prepare")
	}
}

func TestBoundaryStripsTile(t *testing.T) {
	d := grid.Dims{NX: 12, NY: 10, NZ: 8}
	mask := [3][2]bool{{true, false}, {true, true}, {false, true}}
	strips, interior := boundaryStrips(d, mask, 2)
	counts := map[[3]int]int{}
	mark := func(b fd.Box) {
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					counts[[3]int{i, j, k}]++
				}
			}
		}
	}
	for _, b := range strips {
		mark(b)
	}
	mark(interior)
	if len(counts) != d.Cells() {
		t.Fatalf("covered %d, want %d", len(counts), d.Cells())
	}
	for c, n := range counts {
		if n != 1 {
			t.Fatalf("cell %v covered %d times", c, n)
		}
	}
}

func TestMessageVolumeReduction(t *testing.T) {
	d := grid.Dims{NX: 20, NY: 20, NZ: 20}
	all := [3][2]bool{{true, true}, {true, true}, {true, true}}
	full := HaloStats(d, all, Asynchronous).Floats
	reduced := HaloStats(d, all, AsyncReduced).Floats
	// Full: 9 components x 3 axes; reduced: velocities 3x3, stresses
	// 1+1+1+2+2+2 = 9 axes -> (9+9)/(9+18) = 2/3.
	want := 2.0 / 3.0
	if got := float64(reduced) / float64(full); math.Abs(got-want) > 1e-12 {
		t.Fatalf("reduction ratio %g, want %g", got, want)
	}
	// Normal-stress-only reduction is 75% fewer messages than exchanging
	// each in 3 axes x 2 dirs... the paper's statement: sxx goes from 3
	// directions (6 faces) to x only, with 2+1 planes instead of 2x2 — at
	// the message-count level each normal stress drops from 6 to 2 faces.
	vol1 := HaloStats(grid.Dims{NX: 10, NY: 10, NZ: 10}, all, Asynchronous).Floats
	vol2 := HaloStats(grid.Dims{NX: 10, NY: 10, NZ: 10}, all, AsyncReduced).Floats
	if vol2 >= vol1 {
		t.Fatal("reduced model does not reduce volume")
	}
}

func TestCommModelStrings(t *testing.T) {
	for m, want := range map[CommModel]string{
		Synchronous: "sync", Asynchronous: "async",
		AsyncReduced: "async-reduced", AsyncOverlap: "overlap",
	} {
		if m.String() != want {
			t.Errorf("String = %q", m.String())
		}
	}
}

// TestDtIsRanksExactMinimum: Result.Dt is, bit for bit, the minimum over
// ranks of each rank's medium.StableDt at the run's CFL — the reduction
// carries float64 exactly, so it returns a value some rank sent.
func TestDtIsRanksExactMinimum(t *testing.T) {
	for _, topo := range []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 2, 2)} {
		for _, h := range []float64{100, 200} {
			opt := baseOptions(topo)
			opt.H, opt.Steps = h, 2
			var mu sync.Mutex
			want := math.Inf(1)
			res, err := runWorld(cvm.SoCal(24*h, 24*h, 16*h, 500), opt, func(_ *mpi.Comm, st *Stepper) {
				mu.Lock()
				defer mu.Unlock()
				want = math.Min(want, st.med.StableDt(st.opt.CFL))
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res.Dt) != math.Float64bits(want) {
				t.Errorf("%v h=%g: Dt = %.17g, minimum over ranks %.17g", topo, h, res.Dt, want)
			}
		}
	}
}

// TestPGVFoldDefinition pins the surface peak maps: PGVH is
// float32(√max fl(vx²+vy²)) — the squares exact in float64, their sum
// rounded once, one correctly rounded square root — and PGVX/Y the
// float32 max |v|. (5795, 16791012) is a Pythagorean pair whose root,
// 16791013, is the midpoint of two float32s: it rounds to even, 16791012,
// where float32(math.Hypot) on amd64 reads 16791014.
func TestPGVFoldDefinition(t *testing.T) {
	d := grid.Dims{NX: 5, NY: 3, NZ: 3}
	s := &Stepper{st: fd.NewState(d), box: newActiveBox(d)}
	s.sub.Local = d
	s.box.fill()
	n := d.NX * d.NY
	s.pgvh, s.pgvx, s.pgvy = make([]float64, n), make([]float32, n), make([]float32, n)
	want := struct {
		h2     []float64
		px, py []float32
	}{make([]float64, n), make([]float32, n), make([]float32, n)}
	rng := rand.New(rand.NewSource(5))
	for step := range 6 {
		for c := range n {
			i, j := c%d.NX, c/d.NX
			v := [3]float32{float32(rng.NormFloat64()), float32(rng.NormFloat64() * 1e-3), float32(rng.NormFloat64() * 1e3)}
			if c == 0 && step == 2 {
				v = [3]float32{5795, -16791012, 1}
			}
			for k, f := range s.st.Velocities() {
				f.Set(i, j, 0, v[k])
			}
			x, y := float64(v[0]), float64(v[1])
			want.h2[c] = max(want.h2[c], x*x+y*y)
			want.px[c] = max(want.px[c], float32(math.Abs(x)))
			want.py[c] = max(want.py[c], float32(math.Abs(y)))
		}
		s.trackPGV()
	}
	got := s.report().PGV
	if got.H[0] != 16791012 {
		t.Errorf("PGVH of the midpoint pair = %v, want 16791012 (the root 16791013 rounded to even)", got.H[0])
	}
	for c := range n {
		if h := float32(math.Sqrt(want.h2[c])); math.Float32bits(got.H[c]) != math.Float32bits(h) {
			t.Errorf("cell %d: PGVH %v, want %v", c, got.H[c], h)
		}
		if got.PX[c] != want.px[c] || got.PY[c] != want.py[c] {
			t.Errorf("cell %d: PGVX/Y %v %v, want %v %v", c, got.PX[c], got.PY[c], want.px[c], want.py[c])
		}
	}
}
