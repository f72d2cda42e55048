package solver

import "repro/internal/core/fd"

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
