package solver

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/rupture"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/mpi"
)

// mpmlSnapshot is the state of an M-PML run after one step in global
// coordinates: the nine wavefield components of every cell, then the 27
// split components (split-major) of every cell inside a zone, x-fastest; the
// three splits a zone does not store (boundary.PML.Splits) stay 0.
// Which zone a cell belongs to depends only on its distance to the domain
// faces, so the layout is the same under every decomposition.
type mpmlSnapshot [36][]float32

// TestMPMLBitIdentityMatrix holds M-PML runs under every comm model, pool
// size, decomposition and tile shape, with and without a DFR fault, to the
// serial single-rank run at one tile a box: every value of every
// field and of every zone split, after every step. Zones are tiles of the
// same pool queues as the interior, so this is the matrix that says the
// schedule cannot be seen in the result.
//
// The mixed-rate column runs the same scenario over a rock | basin contrast
// with the basin half at rate 4. Where the rate seam lies is part of that
// scheme's arithmetic, so its reference is the serial 2x1x1 run and its
// decompositions all cut x at the contrast; states are compared after every
// cycle, the only steps at which every rank has one.
func TestMPMLBitIdentityMatrix(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	comms := []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap}
	threads := []int{1, 2, 3, 4}
	// DFR mode needs PY = 1, so the fault runs fold the y split into z.
	topos := map[bool][]mpi.Cart{
		false: {mpi.NewCart(1, 1, 1), mpi.NewCart(2, 2, 1), mpi.NewCart(2, 2, 2)},
		true:  {mpi.NewCart(1, 1, 1), mpi.NewCart(2, 1, 1), mpi.NewCart(2, 1, 2)},
	}
	blockings := matrixBlockings
	if testing.Short() {
		comms = []CommModel{AsyncReduced, AsyncOverlap}
		threads = []int{4}
		topos[false], topos[true] = topos[false][2:], topos[true][2:]
		blockings = blockings[:1]
	}
	matrix := func(label string, q cvm.Querier, base Options, refTopo mpi.Cart, topos []mpi.Cart) {
		ref := mpmlReference(t, q, base, refTopo)
		for _, comm := range comms {
			for _, nt := range threads {
				for _, topo := range topos {
					for _, blk := range blockings {
						opt := base
						opt.Comm, opt.Threads, opt.Topo, opt.Blocking = comm, nt, topo, blk
						tag := fmt.Sprintf("%s/%v/threads%d/%dx%dx%d/blocking%d.%d", label, comm, nt,
							topo.PX, topo.PY, topo.PZ, blk.JBlock, blk.KBlock)
						var once sync.Once
						stepWorld(t, q, opt, func(c *mpi.Comm, st *Stepper) {
							if msg := mpmlCompare(st, ref[st.StepIndex()-1]); msg != "" {
								once.Do(func() {
									t.Errorf("%s: rank %d after step %d: %s", tag, c.Rank(), st.StepIndex(), msg)
								})
							}
						})
					}
				}
			}
		}
	}
	for _, fault := range []bool{false, true} {
		matrix(fmt.Sprintf("fault=%v", fault), q, mpmlMatrixOptions(fault), mpi.NewCart(1, 1, 1), topos[fault])
	}

	mixed := mpmlMatrixOptions(false)
	mixed.LTS = LTSOptions{Enabled: true, MaxRateRatio: 4}
	rock, soft := ltsContrast()
	contrast := splitXModel{split: float64(mixed.Global.NX/2) * mixed.H, rock: rock, soft: soft}
	mixedTopos := []mpi.Cart{mpi.NewCart(2, 1, 1), mpi.NewCart(2, 2, 1), mpi.NewCart(2, 2, 2)}
	if testing.Short() {
		mixedTopos = mixedTopos[2:]
	}
	matrix("rates 1/4", contrast, mixed, mpi.NewCart(2, 1, 1), mixedTopos)
}

// mpmlMatrixOptions is the matrix scenario: baseOptions' grid under M-PML
// with the source a few cells from the zones or, in DFR mode, a fault
// overstressed over its whole window, so that it radiates from the first
// step. The window's first two columns lie in the x-low zone, so zone tiles
// carry fault nodes and correction rows.
func mpmlMatrixOptions(fault bool) Options {
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.ABC = MPMLABC
	opt.PMLWidth = 3
	opt.Steps = 16
	opt.Sources = []source.SampledSource{source.PointSource{
		GI: 6, GJ: 7, GK: 4, M0: 1e15, Tensor: source.Explosion,
		STF: source.GaussianPulse(0.08, 0.02),
	}.Sample(0.002, 200)}
	if fault {
		opt.Sources = nil
		opt.Fault = overstressedFault(12, 1, 16, 4, 8)
	}
	return opt
}

// overstressedFault is a fault window of ni x nk nodes from (i0, k0) on the
// plane y = j0, overstressed everywhere, so it slips from the first step.
func overstressedFault(j0, i0, ni, k0, nk int) *FaultSpec {
	tau := make([][]float64, nk)
	sn := make([][]float64, nk)
	fr := make([][]rupture.Friction, nk)
	for k := range tau {
		tau[k] = make([]float64, ni)
		sn[k] = make([]float64, ni)
		fr[k] = make([]rupture.Friction, ni)
		for i := range tau[k] {
			sn[k][i], tau[k][i] = 120e6, 84e6
			fr[k][i] = rupture.Friction{MuS: 0.677, MuD: 0.525, Dc: 0.02}
		}
	}
	return &FaultSpec{J0: j0, I0: i0, I1: i0 + ni, K0: k0, K1: k0 + nk,
		Tau0: tau, SigmaN: sn, Friction: fr}
}

// mpmlReference runs opt serially (one thread a rank, Asynchronous) on topo
// and returns the snapshot after each Step, indexed by the step it reached;
// under mixed rates only the cycle ends are filled. It fails the test unless
// the zones are carrying signal by the last one.
func mpmlReference(t *testing.T, q cvm.Querier, opt Options, topo mpi.Cart) []mpmlSnapshot {
	t.Helper()
	opt.Topo, opt.Threads, opt.Comm = topo, 1, Asynchronous
	g := opt.Global
	ref := make([]mpmlSnapshot, opt.Steps)
	var mu sync.Mutex
	res, rates := stepWorld(t, q, opt, func(_ *mpi.Comm, st *Stepper) {
		snap := &ref[st.StepIndex()-1]
		mu.Lock()
		if snap[0] == nil {
			for i := range snap {
				snap[i] = make([]float32, g.Cells())
			}
		}
		mu.Unlock()
		// Ranks own disjoint cells.
		mpmlVisit(st, func(slot, cell int, v float32) { snap[slot][cell] = v })
	})
	if opt.LTS.Enabled && !equalInts(rates, []int{1, 4}) {
		t.Fatalf("mixed-rate reference ran at rates %v, want [1 4]", rates)
	}
	if opt.Fault != nil {
		// Overstressed everywhere, every node slips — those in the zone too.
		for k, row := range res.FaultSlip {
			for i, slip := range row {
				if !(slip > 0) {
					t.Fatalf("fault node (%d,%d) did not slip in the reference", opt.Fault.I0+i, opt.Fault.K0+k)
				}
			}
		}
	}
	last := ref[opt.Steps-1]
	for slot := 9; slot < 36; slot++ {
		moving := false
		for _, v := range last[slot] {
			moving = moving || v != 0
		}
		// The x, y and z splits of syz, sxz and sxy take no term: a zone does
		// not store them, so nothing visits their slots.
		structurallyZero := slot == 9+2*9+6 || slot == 9+1*9+7 || slot == 9+0*9+8
		if moving == structurallyZero {
			t.Fatalf("fault=%v: split slot %d moving=%v after %d steps", opt.Fault != nil, slot, moving, opt.Steps)
		}
	}
	return ref
}

// mpmlCompare holds this rank's state to the reference snapshot and
// describes the first difference, or returns "".
func mpmlCompare(st *Stepper, want mpmlSnapshot) string {
	var msg string
	mpmlVisit(st, func(slot, cell int, v float32) {
		if msg == "" && math.Float32bits(v) != math.Float32bits(want[slot][cell]) {
			g := st.opt.Global
			name := fd.FieldNames[slot%9]
			if slot >= 9 {
				name = fmt.Sprintf("split%d.%s", slot/9-1, name)
			}
			msg = fmt.Sprintf("%s(%d,%d,%d) = %g, serial single rank %g",
				name, cell%g.NX, cell/g.NX%g.NY, cell/(g.NX*g.NY), v, want[slot][cell])
		}
	})
	return msg
}

// mpmlVisit calls fn(slot, global cell index, value) for every owned cell
// of the nine fields (slots 0-8) and every zone cell of the 24 stored splits
// (slots 9-35, split-major).
func mpmlVisit(st *Stepper, fn func(slot, cell int, v float32)) {
	g, sub := st.opt.Global, st.rs.sub
	cell := func(i, j, k int) int {
		return ((k+sub.OffZ)*g.NY+j+sub.OffY)*g.NX + i + sub.OffX
	}
	for fi, f := range st.State().Fields() {
		for k := 0; k < sub.Local.NZ; k++ {
			for j := 0; j < sub.Local.NY; j++ {
				for i := 0; i < sub.Local.NX; i++ {
					fn(fi, cell(i, j, k), f.At(i, j, k))
				}
			}
		}
	}
	for _, z := range st.rs.zones {
		b := z.Zone
		for si, sp := range z.Splits() {
			for fi, f := range sp.Fields() {
				if f == nil {
					continue
				}
				for k := b.K0; k < b.K1; k++ {
					for j := b.J0; j < b.J1; j++ {
						for i := b.I0; i < b.I1; i++ {
							fn(9+si*9+fi, cell(i, j, k), f.At(i-b.I0, j-b.J0, k-b.K0))
						}
					}
				}
			}
		}
	}
}
