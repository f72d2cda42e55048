package boundary

// What only the benchmark reaches, kept until it stops calling it:
//
//	bench/probes.go:199  z.UpdateVelocity(st, med, dt)
//	bench/probes.go:202  z.UpdateStress(st, med, dt)

import (
	"repro/internal/core/fd"
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
