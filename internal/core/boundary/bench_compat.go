package boundary

// What only the benchmark reaches, kept until it stops calling it:
//
//	bench/probes.go:199  z.UpdateVelocity(st, med, dt)
//	bench/probes.go:202  z.UpdateStress(st, med, dt)

import (
	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/medium"
)

// UpdateVelocity advances the velocity splits in the whole zone and writes
// the recombined velocities back to the global state. Must be called in
// place of the interior kernel for zone cells.
func (pm *PML) UpdateVelocity(s *fd.State, m *medium.Medium, dt float64) {
	pm.Prepare(dt)
	pm.UpdateVelocityBox(s, m, dt, pm.Zone)
}

// UpdateStress advances the stress splits in the whole zone and writes the
// recombined stresses back to the global state.
func (pm *PML) UpdateStress(s *fd.State, m *medium.Medium, dt float64) {
	pm.Prepare(dt)
	pm.UpdateStressBox(s, m, dt, pm.Zone)
}

// ApplyPool damps all nine components over the padded subgrid, ghosts
// included, one (field, k-plane) of DampBox per item of a pool queue (nil or
// serial pool: inline). The solver no longer runs it: it is the padded pass
// of the tests' two-pass oracle and of bench's sponge probe, and moves into
// bench/ with the probe when the benchmark is next revised.
func (sp *Sponge) ApplyPool(s *fd.State, p *sched.Pool) {
	t := &sp.axes
	if t.ones.Contains(t.padded) {
		return // subgrid nowhere near an absorbing zone
	}
	fields := s.Fields()
	nz := t.padded.K1 - t.padded.K0
	p.ForEachN(len(fields)*nz, func(idx int) {
		k := t.padded.K0 + idx%nz
		t.dampPlane(fields[idx/nz], t.padded, k)
	})
}
