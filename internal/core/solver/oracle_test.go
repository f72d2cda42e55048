package solver

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// sectionAt reads interior cell (i, j, k) of a section that is a padded array
// of a subgrid of dims d. The two-pass oracle is compared on every section of
// the rank: its scenarios have no zone and no fault, so those are the nine
// wavefield components and, with attenuation on, the six memory variables.
func sectionAt(sec grid.Section, d grid.Dims, i, j, k int) float32 {
	g := grid.Ghost
	return sec.F32[((k+g)*(d.NY+2*g)+j+g)*(d.NX+2*g)+i+g]
}

// twoPassOracle advances opt's scenario on one rank with a step written out
// here, not taken from the stepper: serial fd Precomp kernels over the whole
// subgrid, then Model.Apply as a second pass over the stresses — the body no
// production path without a fault runs any more, and one that cannot reach
// attenuation.FusedStress. It borrows a Stepper for the set-up only (medium,
// sponge, free surface, memory variables, localized sources) and never calls
// Step. snaps[step][field] is the interior after that step, x fastest.
func twoPassOracle(t *testing.T, q cvm.Querier, opt Options) (snaps [][][]float32) {
	t.Helper()
	opt.Topo = mpi.NewCart(1, 1, 1)
	opt.Comm, opt.Threads, opt.LTS = Asynchronous, 1, LTSOptions{}
	dc, opt, err := Prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	g := opt.Global
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		st, err := NewStepper(c, q, dc, opt)
		if err != nil {
			t.Error(err)
			return
		}
		defer st.Close()
		rs, dt, box := st.rs, st.Dt(), fd.FullBox(g)
		secs := st.Sections()
		for step := 0; step < opt.Steps; step++ {
			fd.UpdateVelocity(rs.st, rs.med, dt, box, fd.Precomp, fd.Blocking{})
			if rs.fs != nil {
				rs.fs.ApplyVelocity(rs.st, rs.med)
			}
			fd.UpdateStress(rs.st, rs.med, dt, box, fd.Precomp, fd.Blocking{})
			if rs.atten != nil {
				rs.atten.Apply(rs.st, rs.med, dt, box)
			}
			rs.srcs.Inject(rs.st, dt, float64(step+1)*dt)
			if rs.sponge != nil {
				rs.sponge.Apply(rs.st)
			}
			if rs.fs != nil {
				rs.fs.ApplyStress(rs.st)
			}
			snap := make([][]float32, len(secs))
			for si, sec := range secs {
				for k := 0; k < g.NZ; k++ {
					for j := 0; j < g.NY; j++ {
						for i := 0; i < g.NX; i++ {
							snap[si] = append(snap[si], sectionAt(sec, g, i, j, k))
						}
					}
				}
			}
			snaps = append(snaps, snap)
		}
	})
	if len(snaps) != opt.Steps {
		t.Fatal("two-pass oracle did not run")
	}
	return snaps
}

// holdToOracle runs opt through the production stepper and, after every Step
// (a step or an LTS cycle) on every rank, compares the rank's
// interior of every oracle field with the oracle's snapshot of that step,
// bit for bit.
func holdToOracle(t *testing.T, tag string, q cvm.Querier, opt Options, snaps [][][]float32) {
	t.Helper()
	g := opt.Global
	var once sync.Once
	_, rates := stepWorld(t, q, opt, func(c *mpi.Comm, st *Stepper) {
		sub := st.rs.sub
		want := snaps[st.StepIndex()-1]
		secs := st.Sections()
		if len(secs) != len(want) {
			once.Do(func() { t.Errorf("%s: rank %d has %d sections, the oracle %d", tag, c.Rank(), len(secs), len(want)) })
			return
		}
		for si, sec := range secs {
			for k := 0; k < sub.Local.NZ; k++ {
				for j := 0; j < sub.Local.NY; j++ {
					row := want[si][((k+sub.OffZ)*g.NY+j+sub.OffY)*g.NX+sub.OffX:]
					for i := 0; i < sub.Local.NX; i++ {
						if got := sectionAt(sec, sub.Local, i, j, k); math.Float32bits(got) != math.Float32bits(row[i]) {
							once.Do(func() {
								t.Errorf("%s: step %d rank %d: %s(%d,%d,%d) = %g, two-pass oracle %g", tag,
									st.StepIndex(), c.Rank(), sec.Name, i+sub.OffX, j+sub.OffY, k+sub.OffZ, got, row[i])
							})
							return
						}
					}
				}
			}
		}
	})
	for _, r := range rates {
		if r != 1 {
			// A rank on a coarser step is a different scheme, not another
			// schedule of this one; it has no single-rank reference.
			t.Fatalf("%s: LTS rates %v, want all 1", tag, rates)
		}
	}
}

// TestDefaultPathMatchesTwoPassOracle is the reference the default path
// answers to. Every path without a fault runs the velocity update as a row
// sweep per tile and stress and memory variables as one sweep, so a comparison
// of two production runs — every other identity matrix in this package —
// holds row sweep against row sweep and fused against fused; this one holds
// the default path (Variant unset) under every comm model, pool size,
// decomposition and stepping scheme to twoPassOracle — pointwise kernels over
// the whole subgrid, none of the production path's code — on every field and
// memory variable after every step. Two scenarios: the filled wavefield of
// baseOptions, and a front that reaches the rank seams inside the window, so
// that the quiescence floor decides what is stored where the comparison is
// made, cut into 3 x 5 tiles so that the row sweeps start and end at odd j
// and k offsets. LTS is held where it is this scheme on another schedule — every rank
// at rate 1, which this model gives all three decompositions; mixed rates are
// another scheme and answer to TestLTSMixedRateAccuracy.
func TestDefaultPathMatchesTwoPassOracle(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	filled := baseOptions(mpi.NewCart(1, 1, 1))
	filled.Variant = fd.Default
	filled.Steps = 40
	front := filled
	// Off the seams at 12/12/8, so the front has to travel to them.
	front.Sources = []source.SampledSource{source.PointSource{
		GI: 6, GJ: 7, GK: 4, M0: 1e15, Tensor: source.Explosion,
		STF: source.GaussianPulse(0.08, 0.02),
	}.Sample(0.002, 200)}
	front.Steps = 16
	front.Blocking = fd.Blocking{JBlock: 3, KBlock: 5}

	comms := []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap}
	threadCounts := []int{1, 4}
	topos := []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 2, 1), mpi.NewCart(2, 2, 2)}
	if testing.Short() {
		comms = []CommModel{AsyncReduced, AsyncOverlap}
		threadCounts = []int{4}
		topos = topos[2:]
	}

	for _, sc := range []struct {
		name string
		opt  Options
	}{{"filled", filled}, {"front", front}} {
		snaps := twoPassOracle(t, q, sc.opt)
		if sc.name == "front" {
			// The window must hold the crossing: the seam plane i = NX/2 of
			// vx at rest after the first step and moving by the last.
			g := sc.opt.Global
			seamMoving := func(step int) bool {
				for n := g.NX / 2; n < g.Cells(); n += g.NX {
					if snaps[step][0][n] != 0 {
						return true
					}
				}
				return false
			}
			if seamMoving(0) || !seamMoving(sc.opt.Steps-1) {
				t.Fatalf("front: does not reach the x seam inside the %d-step window", sc.opt.Steps)
			}
		}
		for _, comm := range comms {
			for _, threads := range threadCounts {
				for _, topo := range topos {
					for _, lts := range []bool{false, true} {
						opt := sc.opt
						opt.Topo, opt.Comm, opt.Threads = topo, comm, threads
						if lts {
							opt.LTS = LTSOptions{Enabled: true, WorkBalance: true}
						}
						tag := fmt.Sprintf("%s/%v/threads%d/%dx%dx%d/lts=%v", sc.name, comm, threads, topo.PX, topo.PY, topo.PZ, lts)
						holdToOracle(t, tag, q, opt, snaps)
					}
				}
			}
		}
	}
}

// TestZeroVariantIsProduction pins the default: an Options literal that
// leaves Variant out is resolved by Prepare, before any rank is built, to
// fd.Production — not to fd.Naive, which the zero value used to be — and runs
// as the Options that name it.
func TestZeroVariantIsProduction(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.Variant = fd.Default
	_, prepared, err := Prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	if prepared.Variant != fd.Production {
		t.Fatalf("Prepare resolved the zero Variant to %v, want %v", prepared.Variant, fd.Production)
	}
	unset, err := Run(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Variant = fd.Production
	named, err := Run(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	expectResultsExact(t, "unset vs production", named, unset)
}
