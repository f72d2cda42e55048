package aval

import (
	"math"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

func TestL2MisfitBasics(t *testing.T) {
	a := [][3]float32{{1, 0, 0}, {0, 1, 0}}
	if m := L2Misfit(a, a); m != 0 {
		t.Errorf("self misfit %g", m)
	}
	b := [][3]float32{{1.1, 0, 0}, {0, 1, 0}}
	m := L2Misfit(b, a)
	want := 0.1 / math.Sqrt(2)
	if math.Abs(m-want) > 1e-6 {
		t.Errorf("misfit %g, want %g", m, want)
	}
	if !math.IsInf(L2Misfit(a, a[:1]), 1) {
		t.Error("length mismatch not inf")
	}
	if L2Misfit(nil, nil) != 0 {
		t.Error("empty-vs-empty should be 0")
	}
	if !math.IsInf(L2Misfit(a, [][3]float32{{0, 0, 0}, {0, 0, 0}}), 1) {
		t.Error("nonzero-vs-zero should be inf")
	}
}

func TestReportString(t *testing.T) {
	r := Check("demo", [][3]float32{{1, 0, 0}}, [][3]float32{{1, 0, 0}}, 1e-6)
	if !r.Pass || r.String() == "" {
		t.Error("passing report wrong")
	}
	r2 := Check("demo", [][3]float32{{2, 0, 0}}, [][3]float32{{1, 0, 0}}, 1e-6)
	if r2.Pass {
		t.Error("failing report passed")
	}
}

// TestAcceptanceAcrossKernelVariants is the §III.H regression use-case:
// updated kernels must match the reference solution within tolerance.
func TestAcceptanceAcrossKernelVariants(t *testing.T) {
	q := cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700})
	base := solver.Options{
		Global:      grid.Dims{NX: 20, NY: 20, NZ: 16},
		H:           100,
		Steps:       50,
		Comm:        solver.Asynchronous,
		Variant:     fd.Naive, // the reference solution is the pre-optimization kernel
		ABC:         solver.SpongeABC,
		SpongeWidth: 4,
		Sources: []source.SampledSource{(source.PointSource{
			GI: 10, GJ: 10, GK: 8, M0: 1e15, Tensor: source.Explosion,
			STF: source.GaussianPulse(0.06, 0.015),
		}).Sample(0.002, 200)},
		Receivers: [][3]int{{5, 10, 8}, {10, 5, 4}},
	}
	ref, err := solver.Run(q, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []fd.Variant{fd.Default, fd.Precomp, fd.Blocked} {
		opt := base
		opt.Variant = variant
		got, err := solver.Run(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		for r := range ref.Seismograms {
			rep := Check(variant.String(), got.Seismograms[r], ref.Seismograms[r], DefaultTolerance)
			if !rep.Pass {
				t.Errorf("variant %v receiver %d: %s", variant, r, rep)
			}
		}
	}
}

// TestCrossCodeVerification is the Fig 3 analogue: the production
// 4th-order solver and the independent 2nd-order reference code must agree
// on a resolved scenario.
func TestCrossCodeVerification(t *testing.T) {
	mat := cvm.Material{Vp: 4000, Vs: 2310, Rho: 2500}
	q := cvm.Homogeneous(mat)
	g := grid.Dims{NX: 36, NY: 36, NZ: 28}
	h := 100.0
	dt := 0.008 // stable for both schemes; well below both CFL limits
	steps := 170
	// Long-period pulse: ~11 cells per wavelength so the 2nd-order code is
	// dispersion-resolved too.
	stf := source.GaussianPulse(0.35, 0.09)
	recv := [][3]int{{10, 18, 14}, {18, 10, 10}, {26, 18, 14}}

	prod, err := solver.Run(q, solver.Options{
		Global: g, H: h, Dt: dt, Steps: steps,
		Topo: mpi.NewCart(2, 1, 1),
		Comm: solver.AsyncReduced,
		ABC:  solver.SpongeABC, SpongeWidth: 6,
		Sources: []source.SampledSource{(source.PointSource{
			GI: 18, GJ: 18, GK: 14, M0: 1e15, Tensor: source.Explosion, STF: stf,
		}).Sample(dt, steps+1)},
		Receivers: recv,
	})
	if err != nil {
		t.Fatal(err)
	}

	refSeis := RunReference(RefConfig{
		NX: g.NX, NY: g.NY, NZ: g.NZ, H: h, Dt: dt, Steps: steps,
		Q:  q,
		SI: 18, SJ: 18, SK: 14, M0: 1e15, Tensor: source.Explosion, STF: stf,
		Receivers: recv,
		Sponge:    6,
	})

	for r := range recv {
		rep := Check("cross-code", prod.Seismograms[r], refSeis[r], CrossCodeTolerance)
		t.Logf("receiver %d: %s", r, rep)
		if !rep.Pass {
			t.Errorf("receiver %d: cross-code misfit %g exceeds %g", r, rep.Misfit, CrossCodeTolerance)
		}
	}
}
