// Package solver integrates the AWP-ODC components into the two
// production drivers (§III.A, Fig. 6): AWM, the anelastic wave propagation
// model, and DFR, the SGSN dynamic fault rupture solver. It owns the MPI
// halo exchange in the four communication models whose evolution the paper
// documents (§IV.A, §IV.C): synchronous, asynchronous with unique tags,
// asynchronous with algorithm-level reduced communication, and
// computation/communication overlap.
package solver

import (
	"repro/internal/core/fd"
	"repro/internal/grid"
)

// CommModel selects the halo-exchange strategy. All models compute
// identical wavefields; they differ in message pattern and scheduling,
// which the performance model (internal/perfmodel) prices.
type CommModel int

const (
	// Synchronous is the original cascaded blocking model with a global
	// barrier per step (AWP-ODC <= v4.0).
	Synchronous CommModel = iota
	// Asynchronous posts all sends/receives with unique tags and waits
	// once (v5.0, ~7x wall-clock reduction on 223K cores).
	Asynchronous
	// AsyncReduced adds the algorithm-level communication reduction: each
	// stress component is exchanged only along the axes its derivatives
	// are taken in (v7.2, 75% less normal-stress traffic, +15%).
	AsyncReduced
	// AsyncOverlap interleaves interior computation with the exchange
	// (§IV.C, +11–21%).
	AsyncOverlap
)

func (c CommModel) String() string {
	switch c {
	case Synchronous:
		return "sync"
	case Asynchronous:
		return "async"
	case AsyncReduced:
		return "async-reduced"
	case AsyncOverlap:
		return "overlap"
	}
	return "unknown"
}

// boundaryStrips splits a subgrid into the halo-adjacent strips (width w
// on each face that has a neighbor) and the remaining interior box, for
// the overlap schedule: compute strips, post their exchange, compute the
// interior while messages fly.
func boundaryStrips(d grid.Dims, mask [3][2]bool, w int) ([]fd.Box, fd.Box) {
	interior := fd.FullBox(d)
	var strips []fd.Box
	add := func(b fd.Box) {
		if !b.Empty() {
			strips = append(strips, b)
		}
	}
	if mask[0][0] {
		add(fd.Box{I0: 0, I1: w, J0: 0, J1: d.NY, K0: 0, K1: d.NZ})
		interior.I0 = w
	}
	if mask[0][1] {
		add(fd.Box{I0: d.NX - w, I1: d.NX, J0: 0, J1: d.NY, K0: 0, K1: d.NZ})
		interior.I1 = d.NX - w
	}
	if mask[1][0] {
		add(fd.Box{I0: interior.I0, I1: interior.I1, J0: 0, J1: w, K0: 0, K1: d.NZ})
		interior.J0 = w
	}
	if mask[1][1] {
		add(fd.Box{I0: interior.I0, I1: interior.I1, J0: d.NY - w, J1: d.NY, K0: 0, K1: d.NZ})
		interior.J1 = d.NY - w
	}
	if mask[2][0] {
		add(fd.Box{I0: interior.I0, I1: interior.I1, J0: interior.J0, J1: interior.J1, K0: 0, K1: w})
		interior.K0 = w
	}
	if mask[2][1] {
		add(fd.Box{I0: interior.I0, I1: interior.I1, J0: interior.J0, J1: interior.J1, K0: d.NZ - w, K1: d.NZ})
		interior.K1 = d.NZ - w
	}
	return strips, interior
}

// MessageStats describes one rank's halo traffic: the float32 volume and
// the message counts per phase — the quantity the extended performance
// model (perfmodel, Eq. 7/8 with the α·nmsgs term) prices.
type MessageStats struct {
	Floats     int // float32 values sent (both phases)
	VelMsgs    int // messages sent in the velocity phase
	StressMsgs int // messages sent in the stress phase
}

// Msgs returns the total messages sent.
func (s MessageStats) Msgs() int { return s.VelMsgs + s.StressMsgs }

// statsEnv is the transport-less env the traffic accounting builds its
// schedules on — the same builders the Stepper uses, over nil fields, with
// placeholder peers on the faces that have a neighbor.
func statsEnv(d grid.Dims, nbrMask [3][2]bool) haloEnv {
	e := haloEnv{d: d}
	for ax := range e.nbr {
		for sd := range e.nbr[ax] {
			if !nbrMask[ax][sd] {
				e.nbr[ax][sd] = -1
			}
		}
	}
	return e
}

// HaloStats returns the per-step halo traffic of a rank with the given
// subgrid under the model, read off the velocity and stress schedules a
// Stepper of that shape executes.
func HaloStats(d grid.Dims, nbrMask [3][2]bool, model CommModel) MessageStats {
	env := statsEnv(d, nbrMask)
	var st MessageStats
	var vf, sf int
	st.VelMsgs, vf = classicSchedule(env, phaseVelocity, model, make([]*grid.Field3, 3)).traffic()
	st.StressMsgs, sf = classicSchedule(env, phaseStress, model, make([]*grid.Field3, 6)).traffic()
	st.Floats = vf + sf
	return st
}
