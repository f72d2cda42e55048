package solver

import (
	"math"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/mpi"
)

// twoPassOracle advances rs by step n of a step written out here, not taken
// from the stepper: serial fd Precomp kernels over the bulk box and each M-PML
// zone swept whole, then Model.Apply as a second pass over the stresses — the
// body no production path without a fault runs any more, and one that cannot
// reach attenuation.FusedStress. In DFR mode the fault runs as whole-plane
// passes: one clock tick, the split-node update of the whole plane after the
// velocity sweeps, the correction of all four rows after the stress sweeps and
// before attenuation. The sources are added after attenuation, and the sponge
// damps all nine fields after them as one padded pass (Sponge.ApplyPool:
// ghosts and images included, velocities at step end) before the free surface
// writes the stress images — the order of the passes the production tiles
// replaced. rs is a one-rank Stepper that never Steps: the
// oracle borrows its set-up (medium, sponge, zones, free surface, memory
// variables, localized sources, fault) only. It is the reference of every
// identity row it applies to (identity_test.go).
func twoPassOracle(rs *Stepper, dt float64, n int) {
	box, whole := rs.compBox, fd.FullBox(rs.sub.Local)
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
	rs.srcs.Rates(dt, float64(n+1)*dt)
	rs.srcs.AddBox(rs.st, whole)
	if rs.sponge != nil {
		rs.sponge.ApplyPool(rs.st, nil)
	}
	if rs.fs != nil {
		rs.fs.ApplyStress(rs.st)
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
	if msg := resultDiff(named, unset); msg != "" {
		t.Fatal(msg)
	}
}

// TestPrecompRungMatchesProductionUnderSponge holds the Precomp rung of the
// ablation to the production kernel under the sponge, elastic and with
// attenuation, bit for bit in every output and in the last step's
// wavefield: Precomp's arithmetic is the production pair's, so the rung's
// velocity tile — Sponge.DampBox over the tile, then its kernel — must store
// what the production tile's tapered sweep stores.
func TestPrecompRungMatchesProductionUnderSponge(t *testing.T) {
	q := cvm.SoCal(3200, 2800, 2000, 400)
	for _, atten := range []bool{false, true} {
		var results [2]*Result
		var last [2][]float32
		for n, v := range []fd.Variant{fd.Production, fd.Precomp} {
			opt := boxScenario(SpongeABC)
			opt.Topo, opt.Variant, opt.Attenuation = mpi.NewCart(1, 1, 1), v, atten
			res, err := runWorld(q, opt, nil, func(_ *mpi.Comm, st *Stepper) {
				if st.Done() {
					for _, f := range st.st.Fields() {
						last[n] = append(last[n], f.Data()...)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			results[n] = res
		}
		if msg := resultDiff(results[0], results[1]); msg != "" {
			t.Errorf("attenuation %v: Precomp: %s", atten, msg)
		}
		for i, v := range last[1] {
			if math.Float32bits(v) != math.Float32bits(last[0][i]) {
				t.Errorf("attenuation %v: Precomp's wavefield value %d after the last step = %g, production %g", atten, i, v, last[0][i])
				break
			}
		}
	}
}
