package solver

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// sectionAt reads interior cell (i, j, k) of a section that is a padded array
// of a subgrid of dims d.
func sectionAt(sec grid.Section, d grid.Dims, i, j, k int) float32 {
	g := grid.Ghost
	return sec.F32[((k+g)*(d.NY+2*g)+j+g)*(d.NX+2*g)+i+g]
}

// oracleSections is what the two-pass oracle is compared on: the nine
// wavefield components, with attenuation on the six memory variables, and in
// DFR mode the fault's sections (on a rank that holds fault nodes). An M-PML
// zone's splits are not among them — TestMPMLBitIdentityMatrix and the
// boundary package hold those — but the wavefield inside the zones is.
func oracleSections(rs *rankState) []grid.Section {
	secs := rs.st.Sections()
	if rs.atten != nil {
		secs = append(secs, rs.atten.Sections()...)
	}
	if rs.fault != nil {
		secs = append(secs, rs.fault.Sections()...)
	}
	return secs
}

// twoPassOracle advances opt's scenario on one rank with a step written out
// here, not taken from the stepper: serial fd Precomp kernels over the bulk
// box and each M-PML zone swept whole, then Model.Apply as a second pass over
// the stresses — the body no production path without a fault runs any more,
// and one that cannot reach attenuation.FusedStress. In DFR mode the fault
// runs as whole-plane passes: one clock tick, the split-node update of the
// whole plane after the velocity sweeps, the correction of all four rows
// after the stress sweeps and before attenuation. The sources are added after
// attenuation, and the sponge damps all nine fields after them as one padded
// pass (Sponge.ApplyPool: ghosts and images included, velocities at step end)
// before the free surface writes the stress images — the order of the passes
// the production tiles replaced. It borrows a Stepper for the set-up only (medium, sponge, zones, free surface, memory
// variables, localized sources, fault) and never calls Step. snaps[step] is
// oracleSections after that step: the interior of every padded array x
// fastest, the fault's sections as they are.
func twoPassOracle(t *testing.T, q cvm.Querier, opt Options) (snaps [][]grid.Section) {
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
		rs, dt, box, whole := st.rs, st.Dt(), st.rs.compBox, fd.FullBox(g)
		secs := oracleSections(rs)
		for step := 0; step < opt.Steps; step++ {
			fd.UpdateVelocity(rs.st, rs.med, dt, box, fd.Precomp, fd.Blocking{})
			for _, z := range rs.zones {
				z.UpdateVelocityBox(rs.st, rs.med, dt, z.Zone)
			}
			if rs.fault != nil {
				rs.fault.Tick(dt)
				rs.fault.UpdateVelocity(rs.st, rs.med, dt, whole)
			}
			if rs.fs != nil {
				rs.fs.ApplyVelocity(rs.st, rs.med)
			}
			fd.UpdateStress(rs.st, rs.med, dt, box, fd.Precomp, fd.Blocking{})
			for _, z := range rs.zones {
				z.UpdateStressBox(rs.st, rs.med, dt, z.Zone)
			}
			if rs.fault != nil {
				rs.fault.CorrectStress(rs.st, rs.med, dt, whole)
			}
			if rs.atten != nil {
				rs.atten.Apply(rs.st, rs.med, dt, box)
			}
			rs.srcs.Rates(dt, float64(step+1)*dt)
			rs.srcs.AddBox(rs.st, whole)
			if rs.sponge != nil {
				rs.sponge.ApplyPool(rs.st, nil)
			}
			if rs.fs != nil {
				rs.fs.ApplyStress(rs.st)
			}
			snap := make([]grid.Section, len(secs))
			for si, sec := range secs {
				snap[si].Name = sec.Name
				if sec.F64 != nil {
					snap[si].F64 = slices.Clone(sec.F64)
					continue
				}
				for k := 0; k < g.NZ; k++ {
					for j := 0; j < g.NY; j++ {
						for i := 0; i < g.NX; i++ {
							snap[si].F32 = append(snap[si].F32, sectionAt(sec, g, i, j, k))
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
// interior of every oracle field, and its share of the fault's state, with
// the oracle's snapshot of that step, bit for bit.
func holdToOracle(t *testing.T, tag string, q cvm.Querier, opt Options, snaps [][]grid.Section) {
	t.Helper()
	g := opt.Global
	var once sync.Once
	fail := func(format string, args ...any) {
		once.Do(func() { t.Errorf(tag+": "+format, args...) })
	}
	_, rates := stepWorld(t, q, opt, func(c *mpi.Comm, st *Stepper) {
		sub := st.rs.sub
		want := snaps[st.StepIndex()-1]
		secs := oracleSections(st.rs)
		wantN := len(want)
		if st.rs.fault == nil {
			// A rank that holds no fault node has no fault sections.
			for _, w := range want {
				if w.F64 != nil {
					wantN--
				}
			}
		}
		if len(secs) != wantN {
			fail("rank %d has %d sections, the oracle %d", c.Rank(), len(secs), wantN)
			return
		}
		for si, sec := range secs {
			if sec.Name != want[si].Name {
				fail("rank %d section %d is %s, the oracle's %s", c.Rank(), si, sec.Name, want[si].Name)
				return
			}
			if sec.F64 != nil {
				// The rank's fault window, flattened k-major, inside the
				// whole one; the clock is one value.
				f := opt.Fault
				i0, k0 := max(f.I0, sub.OffX), max(f.K0, sub.OffZ)
				ni := min(f.I1, sub.OffX+sub.Local.NX) - i0
				for n, v := range sec.F64 {
					w := want[si].F64[0]
					if len(sec.F64) > 1 {
						w = want[si].F64[(k0+n/ni-f.K0)*(f.I1-f.I0)+i0+n%ni-f.I0]
					}
					if math.Float64bits(v) != math.Float64bits(w) {
						fail("step %d rank %d: %s node (%d,%d) = %g, two-pass oracle %g",
							st.StepIndex(), c.Rank(), sec.Name, i0+n%ni, k0+n/ni, v, w)
						return
					}
				}
				continue
			}
			for k := 0; k < sub.Local.NZ; k++ {
				for j := 0; j < sub.Local.NY; j++ {
					row := want[si].F32[((k+sub.OffZ)*g.NY+j+sub.OffY)*g.NX+sub.OffX:]
					for i := 0; i < sub.Local.NX; i++ {
						if got := sectionAt(sec, sub.Local, i, j, k); math.Float32bits(got) != math.Float32bits(row[i]) {
							fail("step %d rank %d: %s(%d,%d,%d) = %g, two-pass oracle %g",
								st.StepIndex(), c.Rank(), sec.Name, i+sub.OffX, j+sub.OffY, k+sub.OffZ, got, row[i])
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
// memory variable after every step. Six scenarios: the filled wavefield of
// baseOptions; a front that reaches the rank seams inside the window, so
// that the quiescence floor decides what is stored where the comparison is
// made, cut into 3 x 5 tiles so that the row sweeps start and end at odd j
// and k offsets; a DFR fault under M-PML, its window across both seams
// and into the x-low zone, cut into the same tiles — so the split-node update
// and the stress correction run as post-bodies of interior and zone tiles,
// strips and inner boxes, split across tiles row by row, against the oracle's
// whole-plane passes, the fault's own state compared as well; boxScenario's
// sponge, whose second source sits in the y-low taper, so that its tile adds
// it before damping the plane or the bits move, under the fused attenuation
// walker and, as sponge-elastic, under the elastic one — the farm's path —
// each beside the tiles that damp in their one tapered sweep; and a DFR fault
// under that sponge, where attenuation must run before the damping. The
// sponge scenarios are where a tile's order — update, source, damping — and
// the velocity pass's place in the step — after the inner tiles read the
// velocities — are seen: the oracle damps all nine fields as one pass at the
// end of the step. LTS is
// held where it is this scheme on another schedule — every rank at rate 1,
// which this model gives all three decompositions; mixed rates are another
// scheme and answer to TestLTSMixedRateAccuracy. A fault excludes LTS.
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
	fault := front
	fault.Sources = nil
	fault.ABC, fault.PMLWidth = MPMLABC, 3
	fault.Fault = overstressedFault(12, 1, 16, 3, 10)
	boxQ := cvm.SoCal(3200, 2800, 2000, 400)
	sponge := boxScenario(SpongeABC)
	spongeElastic := sponge
	spongeElastic.Attenuation = false
	spongeFault := sponge
	spongeFault.Sources = nil
	spongeFault.Fault = overstressedFault(11, 10, 10, 2, 6)

	comms := []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap}
	threadCounts := []int{1, 4}
	spongeThreads := []int{1, 3}
	topos := []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 2, 1), mpi.NewCart(2, 2, 2)}
	// DFR mode needs PY = 1, so the fault runs fold the y split into z.
	faultTopos := []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 1, 1), mpi.NewCart(2, 1, 2)}
	spongeTopos := []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 1, 2)}
	if testing.Short() {
		comms = []CommModel{AsyncReduced, AsyncOverlap}
		threadCounts, spongeThreads = []int{4}, []int{3}
		topos, faultTopos, spongeTopos = topos[2:], faultTopos[2:], spongeTopos[1:]
	}

	for _, sc := range []oracleScenario{
		{"filled", q, filled, topos, threadCounts, []bool{false, true}},
		{"front", q, front, topos, threadCounts, []bool{false, true}},
		{"fault", q, fault, faultTopos, threadCounts, []bool{false}},
		{"sponge", boxQ, sponge, spongeTopos, spongeThreads, []bool{false}},
		{"sponge-elastic", boxQ, spongeElastic, spongeTopos, spongeThreads, []bool{false}},
		{"sponge-fault", boxQ, spongeFault, spongeTopos, spongeThreads, []bool{false}},
	} {
		t.Run(sc.name, func(t *testing.T) { sc.hold(t, comms) })
	}
}

// oracleScenario is one scenario of TestDefaultPathMatchesTwoPassOracle and
// the decompositions, pool sizes and stepping schemes it is held under.
type oracleScenario struct {
	name    string
	q       cvm.Querier
	opt     Options
	topos   []mpi.Cart
	threads []int
	lts     []bool
}

// hold runs the scenario's oracle and holds the production stepper to it
// under each of comms and every combination of the scenario's axes.
func (sc oracleScenario) hold(t *testing.T, comms []CommModel) {
	snaps := twoPassOracle(t, sc.q, sc.opt)
	if sc.name == "front" {
		// The window must hold the crossing: the seam plane i = NX/2 of
		// vx at rest after the first step and moving by the last.
		g := sc.opt.Global
		seamMoving := func(step int) bool {
			for n := g.NX / 2; n < g.Cells(); n += g.NX {
				if snaps[step][0].F32[n] != 0 {
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
		for _, threads := range sc.threads {
			for _, topo := range sc.topos {
				for _, lts := range sc.lts {
					opt := sc.opt
					opt.Topo, opt.Comm, opt.Threads = topo, comm, threads
					if lts {
						opt.LTS = LTSOptions{Enabled: true, WorkBalance: true}
					}
					tag := fmt.Sprintf("%s/%v/threads%d/%dx%dx%d/lts=%v", sc.name, comm, threads, topo.PX, topo.PY, topo.PZ, lts)
					holdToOracle(t, tag, sc.q, opt, snaps)
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
