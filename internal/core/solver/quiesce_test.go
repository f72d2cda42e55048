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

// countSubnormals returns how many values of data are non-zero with a zero
// exponent field.
func countSubnormals(data []float32) int {
	n := 0
	for _, x := range data {
		if b := math.Float32bits(x) & 0x7fffffff; b != 0 && b < 0x00800000 {
			n++
		}
	}
	return n
}

// TestNoStoredSubnormals steps a point source in a quiet grid — the numerical
// precursor of the wavefront sweeps the whole domain within the run — and
// after every Step requires that no section of the rank — wavefield, memory
// variable or PML split — holds a subnormal, ghosts included: the quiescence
// floor at the velocity stores (fd.Quiesce, DESIGN.md §9) keeps every array
// either exactly zero or in the normal range, in the production kernel and the
// ablation's in-loop kernel, under uniform stepping and LTS.
func TestNoStoredSubnormals(t *testing.T) {
	rock, soft := ltsContrast()
	g := grid.Dims{NX: 32, NY: 16, NZ: 16}
	q := splitXModel{split: float64(g.NX/2) * 100, rock: rock, soft: soft}
	for _, variant := range []fd.Variant{fd.Naive, fd.Production} {
		for _, abc := range []ABCKind{SpongeABC, MPMLABC} {
			for _, threads := range []int{1, 4} {
				for _, lts := range []bool{false, true} {
					if abc == MPMLABC && lts {
						continue // Prepare rejects M-PML under LTS
					}
					opt := ltsOptions(g, 24, mpi.NewCart(2, 1, 1))
					opt.Variant = variant
					opt.ABC = abc
					opt.PMLWidth = 4
					opt.Threads = threads
					if lts {
						opt.LTS = LTSOptions{Enabled: true, MaxRateRatio: 4}
					}
					tag := fmt.Sprintf("%v/abc%d/threads%d/lts=%v", variant, abc, threads, lts)

					var once sync.Once
					_, rates := stepWorld(t, q, opt, func(c *mpi.Comm, st *Stepper) {
						for _, sec := range st.Sections() {
							if n := countSubnormals(sec.F32); n > 0 {
								once.Do(func() {
									t.Errorf("%s: rank %d after step %d: %d subnormal values in %s",
										tag, c.Rank(), st.StepIndex(), n, sec.Name)
								})
							}
						}
					})
					if lts && !equalInts(rates, []int{1, 4}) {
						t.Fatalf("%s: LTS rates %v, want mixed [1 4]", tag, rates)
					}
				}
			}
		}
	}
}

// TestFrontCrossesSeamsExactly compares every wavefield value of a 2x2x2
// run with the single-rank run after each step while the precursor front
// — where the floor decides what is stored — first reaches and crosses the
// rank seams: the floor is pointwise, so the decomposition must stay exact
// there, under the sponge and under M-PML.
func TestFrontCrossesSeamsExactly(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	for _, abc := range []ABCKind{SpongeABC, MPMLABC} {
		opt := baseOptions(mpi.NewCart(1, 1, 1))
		// Off the seams at 12/12/8, so the front has to travel to them.
		opt.Sources = []source.SampledSource{source.PointSource{
			GI: 6, GJ: 7, GK: 4, M0: 1e15, Tensor: source.Explosion,
			STF: source.GaussianPulse(0.08, 0.02),
		}.Sample(0.002, 200)}
		opt.ABC = abc
		opt.PMLWidth = 3
		opt.Steps = 16
		g := opt.Global

		// ref[step][field] is the single-rank interior, x-fastest.
		ref := make([][][]float32, opt.Steps)
		stepWorld(t, q, opt, func(_ *mpi.Comm, st *Stepper) {
			var snap [][]float32
			for _, f := range st.State().Fields() {
				vals := make([]float32, 0, g.Cells())
				for k := 0; k < g.NZ; k++ {
					for j := 0; j < g.NY; j++ {
						for i := 0; i < g.NX; i++ {
							vals = append(vals, f.At(i, j, k))
						}
					}
				}
				snap = append(snap, vals)
			}
			ref[st.StepIndex()-1] = snap
		})
		// The window must hold the crossing: the seam plane i = NX/2 at
		// rest after the first step and moving by the last.
		seamMoving := func(step int) bool {
			for k := 0; k < g.NZ; k++ {
				for j := 0; j < g.NY; j++ {
					if ref[step][0][(k*g.NY+j)*g.NX+g.NX/2] != 0 {
						return true
					}
				}
			}
			return false
		}
		if seamMoving(0) || !seamMoving(opt.Steps-1) {
			t.Fatalf("abc %d: the front does not reach the x seam inside the %d-step window", abc, opt.Steps)
		}

		opt.Topo = mpi.NewCart(2, 2, 2)
		var once sync.Once
		stepWorld(t, q, opt, func(c *mpi.Comm, st *Stepper) {
			sub := st.rs.sub
			want := ref[st.StepIndex()-1]
			for fi, f := range st.State().Fields() {
				for k := 0; k < sub.Local.NZ; k++ {
					for j := 0; j < sub.Local.NY; j++ {
						for i := 0; i < sub.Local.NX; i++ {
							gi, gj, gk := i+sub.OffX, j+sub.OffY, k+sub.OffZ
							w := want[fi][(gk*g.NY+gj)*g.NX+gi]
							if got := f.At(i, j, k); math.Float32bits(got) != math.Float32bits(w) {
								once.Do(func() {
									t.Errorf("abc %d step %d rank %d: %s(%d,%d,%d) = %g, single rank %g",
										abc, st.StepIndex(), c.Rank(), fd.FieldNames[fi], gi, gj, gk, got, w)
								})
								return
							}
						}
					}
				}
			}
		})
	}
}
