package solver

import (
	"time"

	"repro/internal/core/fd"
	"repro/internal/telemetry"
)

// Time-tiled execution (Options.TemporalDepth > 1): one super-step advances
// the wavefield T leapfrog steps with a single deep halo exchange and one
// skewed pass over the subgrid, instead of T passes with 2T exchanges. The
// k-chunk/stage geometry lives in internal/core/fd (ttile.go); this file
// composes the full per-step schedule — kernels, sponge damping, free
// surface, source injection, observables — onto that geometry so the run
// is bit-identical to the step-by-step path.
//
// Stage composition per chunk (stage order = time order within the chunk):
//
//	h=1:    velocity step 1 (ext 4T-2), then FS velocity images
//	h=2s:   stress step s + attenuation (ext 4T-4s) + source injection
//	h=2s+1: sponge-damp stress s (stress window) -> FS stress images ->
//	        sponge-damp velocity s (lag 4s, ext 4T-4s-2) -> step-s
//	        observables (receivers, PGV) -> velocity step s+1 (same
//	        window) -> FS velocity images
//	h=2T+1: the trailing damp/observable stage of step T (no velocity)
//
// The damp operations of step s run one stage after the updates of step s
// so that the stress of step s reads the *undamped* velocity planes right
// below its window (the reference damps velocities only after the stress
// update has consumed them), while the velocity of step s+1 — which runs
// after the damps within the same stage — reads damped stress and
// accumulates onto damped velocity, exactly as in the reference order
// update -> exchange -> sponge -> free surface.
//
// Ghost extensions shrink by 4 cells per step (2 per stage): an op with
// extension e recomputes the e ghost planes next to each interior face
// that has a neighbor, reproducing bit-for-bit the values the neighbor
// computes, so the exchanged 4T-deep halo data stays valid for T steps.
// Free-surface images are refreshed over the extension the next reader
// needs; sponge damping uses the global-coordinate taper, so recomputed
// ghost cells damp exactly like the neighbor's own cells.

// advanceSuper advances T steps (global indices baseStep..baseStep+T-1) as
// one super-step. T may be smaller than opt.TemporalDepth on the final
// partial super-step; the exchange always runs at the configured depth.
func (rs *rankState) advanceSuper(opt Options, dt float64, baseStep, T int, tm *Timing) {
	d := rs.sub.Local

	t0 := time.Now()
	rs.deep.exchange()
	tm.Comm += time.Since(t0).Seconds()
	if opt.Comm == Synchronous {
		t0 = time.Now()
		sp := rs.tel.Span(telemetry.Sync)
		rs.comm.Barrier()
		sp.End()
		tm.Sync += time.Since(t0).Seconds()
	}

	t0 = time.Now()
	var outSec float64

	stress := rs.stressTile(opt, dt)
	vels := rs.st.Velocities()
	strs := rs.st.Stresses()
	kChunk := opt.Blocking.KBlock
	if kChunk < fd.MinKChunk {
		kChunk = fd.MinKChunk
	}

	// kRange is the valid k-span of an op with ghost extension ext: it
	// extends into the ghosts only toward faces with a neighbor.
	kRange := func(ext int) (int, int) {
		k0, k1 := 0, d.NZ
		if rs.nbrMask[2][0] {
			k0 = -ext
		}
		if rs.nbrMask[2][1] {
			k1 = d.NZ + ext
		}
		return k0, k1
	}
	hBox := func(ext int) (i0, i1, j0, j1 int) {
		i0, i1, j0, j1 = 0, d.NX, 0, d.NY
		if rs.nbrMask[0][0] {
			i0 = -ext
		}
		if rs.nbrMask[0][1] {
			i1 = d.NX + ext
		}
		if rs.nbrMask[1][0] {
			j0 = -ext
		}
		if rs.nbrMask[1][1] {
			j1 = d.NY + ext
		}
		return
	}
	window := func(c0, lag, ext int) (int, int) {
		k0, k1 := kRange(ext)
		return fd.StageWindow(c0, kChunk, lag, k0, k1)
	}
	opBox := func(ext, w0, w1 int) fd.Box {
		i0, i1, j0, j1 := hBox(ext)
		return fd.Box{I0: i0, I1: i1, J0: j0, J1: j1, K0: w0, K1: w1}
	}

	// velocity runs the velocity update of step s (stage 2s-1) over its
	// chunk window, then refreshes the free-surface velocity images once
	// the window covers plane 1 (the vz image reads planes 0 and 1).
	velocity := func(c0, s int) {
		ext := fd.VelExt(T, s)
		w0, w1 := window(c0, fd.StageLag(2*s-1), ext)
		if w1 > w0 {
			sp := rs.tel.Span(telemetry.Velocity)
			fd.UpdateVelocityTiled(rs.st, rs.med, dt, opBox(ext, w0, w1), opt.Variant, opt.Blocking, rs.pool)
			sp.End()
		}
		if rs.fs != nil && w0 <= 1 && 1 < w1 {
			// The next stress stage reads the images at z-offsets of its
			// own columns, so the image window is the stress extension.
			sp := rs.tel.Span(telemetry.Boundary)
			i0, i1, j0, j1 := hBox(fd.StressExt(T, s))
			rs.fs.ApplyVelocityBox(rs.st, rs.med, i0, i1, j0, j1)
			sp.End()
		}
	}

	// stressStage runs stress+attenuation of step s (stage 2s) and injects
	// the step's moment-rate increments into the cells it just recomputed
	// (each source cell is injected exactly once per step — the windows of
	// one stage tile the valid range).
	stressStage := func(c0, s int) {
		ext := fd.StressExt(T, s)
		w0, w1 := window(c0, fd.StageLag(2*s), ext)
		if w1 <= w0 {
			return
		}
		b := opBox(ext, w0, w1)
		fd.ForEachTile(b, opt.Blocking, rs.pool, stress)
		rs.srcs.InjectRegion(rs.st, dt, float64(baseStep+s)*dt, b, true)
	}

	// dampStage completes step s (stage 2s+1): damp the stress window of
	// step s, refresh stress images, damp the step-s velocities one stage
	// deeper, extract observables, and (for s < T) run the velocity update
	// of step s+1 over the just-damped window.
	dampStage := func(c0, s int) {
		sExt := fd.StressExt(T, s)
		sw0, sw1 := window(c0, fd.StageLag(2*s), sExt)
		if rs.sponge != nil && sw1 > sw0 {
			sp := rs.tel.Span(telemetry.Boundary)
			rs.sponge.ApplyBoxFields(strs, opBox(sExt, sw0, sw1), rs.pool)
			sp.End()
		}
		if rs.fs != nil && sw0 <= 1 && 1 < sw1 {
			// The next velocity stage (ext sExt-2) reads the images at
			// z-offsets of its own columns.
			fsExt := sExt - 2
			if fsExt < 0 {
				fsExt = 0
			}
			sp := rs.tel.Span(telemetry.Boundary)
			i0, i1, j0, j1 := hBox(fsExt)
			rs.fs.ApplyStressBox(rs.st, i0, i1, j0, j1)
			sp.End()
		}

		vExt := fd.VelExt(T, s+1) // clip(4T-4s-2), 0 at s=T
		vw0, vw1 := window(c0, fd.StageLag(2*s+1), vExt)
		if rs.sponge != nil && vw1 > vw0 {
			sp := rs.tel.Span(telemetry.Boundary)
			rs.sponge.ApplyBoxFields(vels, opBox(vExt, vw0, vw1), rs.pool)
			sp.End()
		}

		// Observables of global step baseStep+s-1 read the damped step-s
		// velocities before the step-s+1 update overwrites the window.
		step := baseStep + s - 1
		to := time.Now()
		sp := rs.tel.Span(telemetry.Output)
		if step%opt.RecordEvery == 0 {
			si := step / opt.RecordEvery
			for i := range rs.receivers {
				r := &rs.receivers[i]
				if r.lk >= vw0 && r.lk < vw1 {
					r.series[si] = [3]float32{
						rs.st.VX.At(r.li, r.lj, r.lk),
						rs.st.VY.At(r.li, r.lj, r.lk),
						rs.st.VZ.At(r.li, r.lj, r.lk),
					}
				}
			}
		}
		if rs.pgvh != nil && vw0 <= 0 && 0 < vw1 {
			rs.pool.ForEachN(d.NY, rs.trackPGVRow)
		}
		sp.End()
		outSec += time.Since(to).Seconds()

		if s < T {
			velocity(c0, s+1)
		}
	}

	for c0 := fd.ChunkStart(T, rs.nbrMask[2][0]); c0 < fd.ChunkEnd(T, d.NZ); c0 += kChunk {
		velocity(c0, 1)
		for s := 1; s <= T; s++ {
			stressStage(c0, s)
			dampStage(c0, s)
		}
	}

	tm.Comp += time.Since(t0).Seconds() - outSec
	tm.Output += outSec
}
