package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/agg"
	"repro/internal/checkpoint"
	"repro/internal/core/attenuation"
	"repro/internal/core/boundary"
	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/core/solver"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/farm"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/output"
	"repro/internal/pfs"
)

// Computed bytes per cell per call of the default (precomputed-coefficient)
// kernels: every array the loop body names, counted once per cell as a
// stream, float32. The shared host L3 (260 MiB) is larger than any array
// here, so these are computed from the code, not measured traffic.
const (
	velocityBytesPerCell = (9 + 3 + 3) * 4     // read 9 wavefields + 3 buoyancies, write 3 velocities
	stressBytesPerCell   = (3 + 6 + 5 + 6) * 4 // read 3 velocities + 6 stresses + 5 moduli, write 6 stresses
)

// runProbes measures each layer alone through its public functions, one
// call at a time on an otherwise idle process, and checks what each call
// returns.
func runProbes(m *measurement, o options, tr *tracer) {
	root := tr.begin(-1, "probes", "probes")
	defer tr.end(root)
	probe := func(name string, fn func()) {
		sp := tr.begin(root, "probes", "probe:"+name)
		fn()
		tr.end(sp)
	}
	sc := o.scale
	reps := sc.probeReps

	var triadGBps float64
	probe("host", func() {
		n := sc.triadBytes / 8
		a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range b {
			b[i], c[i] = float64(i), float64(n-i)
		}
		sec := timeCalls(reps, func() {
			for i := range a {
				a[i] = b[i] + 3*c[i]
			}
		})
		m.check(a[n/2] == b[n/2]+3*c[n/2], "host: triad result")
		triadGBps = 3 * float64(sc.triadBytes) / sec / 1e9
		m.add("host.triad_gbps", triadGBps, "GB/s")
	})

	d, h := sc.solveDims, sc.solveH // the solve workloads' grid
	q := cvm.SoCal(float64(d.NX-1)*h, float64(d.NY-1)*h, float64(d.NZ-1)*h, 500)
	dc1, err := decomp.New(d, mpi.NewCart(1, 1, 1))
	dc8, err8 := decomp.New(d, mpi.NewCart(2, 2, 2))
	if err != nil || err8 != nil {
		m.check(false, "probes: decomp: %v %v", err, err8)
		return
	}
	var med *medium.Medium
	probe("cvm+medium", func() {
		rng := rand.New(rand.NewSource(o.seed))
		const queries = 20000
		pts := make([][3]float64, queries)
		for i := range pts {
			pts[i] = [3]float64{rng.Float64() * float64(d.NX) * h, rng.Float64() * float64(d.NY) * h, rng.Float64() * float64(d.NZ) * h}
		}
		var vs float64
		sec := timeCalls(reps, func() {
			for _, p := range pts {
				vs += q.Query(p[0], p[1], p[2]).Vs
			}
		})
		m.check(vs > 0 && finite(vs), "cvm: Query sum %g", vs)
		m.add("cvm.query_ns", sec/queries*1e9, "ns")

		sub := dc8.SubFor(0)
		sec = timeCalls(reps, func() { medium.FromCVM(q, dc8, sub, h) })
		m.add("medium.build_ns_per_cell", sec/float64(sub.Local.Cells())*1e9, "ns")
		med = medium.FromCVM(q, dc1, dc1.SubFor(0), h)
		m.check(med.MaxVp > med.MinVs && med.MinVs > 0, "medium: MinVs %g MaxVp %g", med.MinVs, med.MaxVp)
	})
	dt := med.StableDt(0.5)
	box := fd.FullBox(d)
	cells := float64(d.Cells())
	st := fd.NewState(d)
	// fill puts normal-range values everywhere, except that the deepest
	// share `denormal` of the k-planes holds subnormal ones: the precursor
	// of a wavefront entering a quiescent grid decays smoothly, so its
	// subnormal cells are neighbours and their updates stay subnormal.
	fill := func(denormal float64) {
		rng := rand.New(rand.NewSource(o.seed))
		for fi, f := range st.Fields() {
			amp := float32(1e-3)
			if fi >= 3 {
				amp = 1e4 // stresses, Pa
			}
			data := f.Data()
			tiny := int(denormal * float64(len(data)))
			for i := range data {
				data[i] = amp * (rng.Float32() - 0.5)
				if i < tiny {
					data[i] *= 1e-41 / amp
				}
			}
		}
	}

	probe("fd", func() {
		// A leapfrog step on random data is stable under the CFL bound, so
		// alternating the two kernels keeps the values in the normal range.
		perCell := func(v fd.Variant) (vel, str float64) {
			fill(0)
			var vs, ss []float64
			for i := 0; i <= reps; i++ {
				t0 := time.Now()
				fd.UpdateVelocity(st, med, dt, box, v, fd.DefaultBlocking)
				t1 := time.Now()
				fd.UpdateStress(st, med, dt, box, v, fd.DefaultBlocking)
				if i > 0 {
					vs, ss = append(vs, t1.Sub(t0).Seconds()), append(ss, time.Since(t1).Seconds())
				}
			}
			m.check(finite(float64(st.MaxAbs())), "fd: %v kernels left a non-finite state", v)
			return median(vs) / cells * 1e9, median(ss) / cells * 1e9
		}
		// "default" is what awp.Scenario.Variant "" resolves to.
		velD, strD := perCell(fd.Blocked)
		velF, strF := perCell(fd.Fused)
		_, strN := perCell(fd.Naive) // what cmd/pipeline's unset Variant runs
		stepDefaultS := (velD + strD) * cells / 1e9
		gbps := float64(velocityBytesPerCell+stressBytesPerCell) * cells / stepDefaultS / 1e9
		m.add("fd.velocity_ns_per_cell.default", velD, "ns")
		m.add("fd.velocity_ns_per_cell.fused", velF, "ns")
		m.add("fd.stress_ns_per_cell.default", strD, "ns")
		m.add("fd.stress_ns_per_cell.fused", strF, "ns")
		m.add("fd.stress_ns_per_cell.naive", strN, "ns")
		m.add("fd.bytes_per_cell_computed", velocityBytesPerCell+stressBytesPerCell, "B")
		m.add("fd.gbps_computed.default", gbps, "GB/s")
		m.add("fd.roofline_share.default", gbps/triadGBps, "ratio")

		// One step on a state re-filled each time with 10% subnormals,
		// against the same on normal values.
		oneStep := func(denormal float64) float64 {
			ts := make([]float64, reps)
			for i := range ts {
				fill(denormal)
				t0 := time.Now()
				fd.UpdateVelocity(st, med, dt, box, fd.Blocked, fd.DefaultBlocking)
				fd.UpdateStress(st, med, dt, box, fd.Blocked, fd.DefaultBlocking)
				ts[i] = time.Since(t0).Seconds()
			}
			return median(ts)
		}
		m.add("fd.denormal_slowdown", oneStep(0.10)/oneStep(0), "ratio")
	})

	var atten *attenuation.Model
	probe("attenuation", func() {
		fill(0)
		atten = attenuation.New(med, attenuation.DefaultBand, dt)
		sec := timeCalls(reps, func() { atten.Apply(st, med, dt, box) })
		m.add("attenuation.apply_ns_per_cell", sec/cells*1e9, "ns")
		sec = timeCalls(reps, func() { atten.FusedStress(st, med, dt, box) })
		m.add("attenuation.fused_stress_ns_per_cell", sec/cells*1e9, "ns")
		m.check(finite(float64(st.MaxAbs())), "attenuation: non-finite state")
	})

	probe("boundary", func() {
		fill(0)
		faces := boundary.FaceSet{XLo: true, XHi: true, YLo: true, YHi: true, ZHi: true} // free surface on top
		sponge := boundary.NewSpongeGlobal(d, d, [3]int{}, 8, boundary.DefaultSpongeAlpha, faces)
		serial := sched.NewPool(1)
		defer serial.Close()
		sec := timeCalls(reps, func() { sponge.ApplyPool(st, serial) })
		m.add("boundary.sponge_ns_per_cell", sec/cells*1e9, "ns")

		zones, comp := boundary.BuildPML(d, faces, boundary.DefaultPMLWidth, boundary.DefaultMPMLRatio,
			boundary.DefaultPMLReflection, med.MaxVp, h)
		pmlCells := cells - float64(comp.Cells())
		fill(0)
		sec = timeCalls(reps, func() {
			for _, z := range zones {
				z.UpdateVelocity(st, med, dt)
			}
			for _, z := range zones {
				z.UpdateStress(st, med, dt)
			}
		})
		m.check(len(zones) == 5 && pmlCells > 0, "boundary: %d PML zones, %g cells", len(zones), pmlCells)
		m.add("boundary.pml_ns_per_pml_cell", sec/pmlCells*1e9, "ns")
		m.add("boundary.pml_cell_share", pmlCells/cells, "ratio")

		fs := boundary.NewFreeSurface(d)
		sec = timeCalls(reps, func() {
			fs.ApplyVelocity(st, med)
			fs.ApplyStress(st)
		})
		m.add("boundary.freesurface_ns_per_surface_cell", sec/float64(d.NX*d.NY)*1e9, "ns")
		m.check(finite(float64(st.MaxAbs())), "boundary: non-finite state")
	})

	probe("sched", func() {
		one, two := sched.NewPool(1), sched.NewPool(2)
		defer one.Close()
		defer two.Close()
		tiles := len(fd.Tiles(box, fd.DefaultBlocking))
		const sweeps = 200
		sec := timeCalls(reps, func() {
			for i := 0; i < sweeps; i++ {
				fd.ForEachTile(box, fd.DefaultBlocking, two, func(fd.Box) {})
			}
		})
		m.add("sched.dispatch_ns_per_tile", sec/float64(sweeps*tiles)*1e9, "ns")
		fill(0)
		t1 := timeCalls(reps, func() { fd.UpdateStressTiled(st, med, dt, box, fd.Blocked, fd.DefaultBlocking, one) })
		t2 := timeCalls(reps, func() { fd.UpdateStressTiled(st, med, dt, box, fd.Blocked, fd.DefaultBlocking, two) })
		m.add("sched.stress_speedup_2t", t1/t2, "ratio")
	})

	probe("mpi", func() {
		const trips = 2000
		buf := make([]float32, 1024) // 4 KB
		var pingS, barrierS, allreduceS float64
		mpi.NewWorld(2).Run(func(c *mpi.Comm) {
			in := make([]float32, len(buf))
			t0 := time.Now()
			for i := 0; i < trips; i++ {
				if c.Rank() == 0 {
					c.Send(1, 1, buf)
					c.MustRecv(in, 1, 2)
				} else {
					c.MustRecv(in, 0, 1)
					c.Send(0, 2, in)
				}
			}
			if c.Rank() == 0 {
				pingS = time.Since(t0).Seconds() / trips
			}
		})
		var sum float64
		mpi.NewWorld(8).Run(func(c *mpi.Comm) {
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < trips; i++ {
				c.Barrier()
			}
			t1 := time.Now()
			var s float64
			for i := 0; i < trips; i++ {
				s = c.Allreduce([]float64{float64(c.Rank())}, mpi.Sum)[0]
			}
			if c.Rank() == 0 {
				barrierS, allreduceS, sum = t1.Sub(t0).Seconds()/trips, time.Since(t1).Seconds()/trips, s
			}
		})
		m.check(sum == 28, "mpi: Allreduce of ranks 0..7 gave %g", sum)
		spawnS := timeCalls(10*reps, func() { mpi.NewWorld(8).Run(func(*mpi.Comm) {}) })
		m.add("mpi.pingpong_us_4kb", pingS*1e6, "us")
		m.add("mpi.barrier_us_8r", barrierS*1e6, "us")
		m.add("mpi.allreduce_us_8r", allreduceS*1e6, "us")
		m.add("mpi.world_spawn_us_8r", spawnS*1e6, "us")
	})

	probe("solver.halo", func() {
		r := solver.RunHaloExchangeBench(solver.HaloBenchConfig{
			Topo: mpi.NewCart(2, 2, 2), Local: dc8.SubFor(0).Local,
			Model: solver.AsyncReduced, Steps: 10 * reps,
		})
		m.check(r.VelMsgs > 0 && r.StressMsgs > 0 && finite(r.Checksum), "solver: halo bench moved no messages")
		m.add("solver.halo_exchange_us.8rank", r.SecPerStep*1e6, "us")
		m.add("solver.halo_msgs_per_step.8rank", r.VelMsgs+r.StressMsgs, "count")
		m.add("solver.halo_kb_per_step.8rank", (r.VelFloats+r.StressFloats)*4/1024, "KB")
	})

	probe("io", func() {
		mb := float64(sc.ioBytes) / 1e6
		fsys := pfs.New(pfs.Jaguar())
		data := make([]byte, sc.ioBytes)
		rand.New(rand.NewSource(o.seed)).Read(data)
		const chunk = 1 << 20
		var ioErr error
		sec := timeCalls(reps, func() {
			for off := 0; off < len(data); off += chunk {
				if err := fsys.WriteAt("probe/raw.bin", off, data[off:off+chunk]); err != nil {
					ioErr = err
				}
			}
		})
		m.add("pfs.write_mb_per_s", mb/sec, "MB/s")
		back := make([]byte, len(data))
		sec = timeCalls(reps, func() {
			for off := 0; off < len(back); off += chunk {
				if err := fsys.ReadAt("probe/raw.bin", off, back[off:off+chunk]); err != nil {
					ioErr = err
				}
			}
		})
		m.check(ioErr == nil && string(back[len(back)-chunk:]) == string(data[len(data)-chunk:]), "pfs: read-back differs (%v)", ioErr)
		m.add("pfs.read_mb_per_s", mb/sec, "MB/s")

		// Four ranks each write their quadrant of a 12-byte-record volume
		// of ioBytes through the two-phase aggregator.
		vol := grid.Dims{NX: 128, NY: 128, NZ: sc.ioBytes / (128 * 128 * 12)}
		var aggErr error
		var written int
		sec = timeCalls(reps, func() {
			mpi.NewWorld(4).Run(func(c *mpi.Comm) {
				i0, j0 := (c.Rank()%2)*64, (c.Rank()/2)*64
				segs := mpiio.BlockSegments(vol, i0, i0+64, j0, j0+64, 0, vol.NZ, 12)
				ws, err := agg.WriteIndexed(c, fsys, "probe/agg.bin", segs, data[:mpiio.TotalLen(segs)], agg.Config{})
				if c.Rank() == 0 {
					aggErr, written = err, ws.Bytes
				}
			})
		})
		m.check(aggErr == nil && written == vol.Cells()*12, "agg: wrote %d of %d bytes (%v)", written, vol.Cells()*12, aggErr)
		m.add("agg.write_mb_per_s", float64(written)/1e6/sec, "MB/s")

		fill(0)
		var ckErr error
		var ckBytes int
		sec = timeCalls(reps, func() {
			ps, err := checkpoint.Save(fsys, "probe/ckpt", 0, 7, st, atten)
			ckErr, ckBytes = err, ps.Bytes
		})
		m.add("checkpoint.save_mb_per_s", float64(ckBytes)/1e6/sec, "MB/s")
		want := st.Clone()
		sec = timeCalls(reps, func() {
			if err := checkpoint.Load(fsys, "probe/ckpt", 0, 7, st, atten); err != nil {
				ckErr = err
			}
		})
		m.check(ckErr == nil && ckBytes > 0 && st.L2Diff(want) == 0, "checkpoint: save/load round trip (%v)", ckErr)
		m.add("checkpoint.load_mb_per_s", float64(ckBytes)/1e6/sec, "MB/s")

		var sums []string
		sec = timeCalls(reps, func() { sums = output.ParallelMD5(data, 8) })
		serial := output.SerialMD5(data, 8)
		m.check(len(sums) == 8 && fmt.Sprint(sums) == fmt.Sprint(serial), "output: ParallelMD5 differs from SerialMD5")
		m.add("output.md5_mb_per_s", mb/sec, "MB/s")
	})

	probe("farm", func() { farmProbes(m, o) })
}

// farmProbes times the hazard service's parts on an idle service, one call
// at a time.
func farmProbes(m *measurement, o options) {
	reps, n := o.scale.probeReps, surrogateN
	spec := farm.DefaultSpec()
	scs := farm.LatinHypercube(n+4*reps+2, o.seed+2, farm.DefaultRange())
	train, rest := scs[:n], scs[n:]

	// A job alone: queue, world spawn, model and medium set-up, the solve,
	// the store. Its set-up share is a one-step solve over the whole one.
	svc := newService(nil)
	var jobS []float64
	for _, sc := range rest[:reps+1] {
		t0 := time.Now()
		ok := svc.pilot(sc)
		jobS = append(jobS, time.Since(t0).Seconds())
		m.check(ok, "farm: solo job left no product")
	}
	jobS = jobS[1:]
	opt, model := spec.Options(rest[0]), spec.Model(rest[0])
	full := timeCalls(reps, func() { _, _ = solver.Run(model, opt) })
	opt.Steps = 1
	setup := timeCalls(reps, func() { _, _ = solver.Run(model, opt) })
	m.add("farm.job_solo_ms", 1e3*median(jobS), "ms")
	m.add("farm.job_setup_share", setup/full, "ratio")

	key := rest[0].Key()
	p, err := svc.store.Get(key)
	m.check(err == nil, "farm: Store.Get: %v", err)
	sec := timeCalls(10*reps, func() { _, err = svc.store.Put(p) })
	m.check(err == nil, "farm: Store.Put: %v", err)
	m.add("farm.store_put_us", sec*1e6, "us")
	sec = timeCalls(10*reps, func() { _, err = svc.store.Get(key) })
	m.check(err == nil, "farm: Store.Get: %v", err)
	m.add("farm.store_get_us", sec*1e6, "us")

	// The surrogate at ensemble size: a refit is what the first Predict
	// after an Observe pays, under the surrogate's lock.
	sur := svc.farm.Surrogate()
	for i, sc := range train {
		sur.Observe(sc, 1e-3*(1+math.Sin(float64(i))))
	}
	unseen := rest[reps+1:]
	var refitS []float64
	for i := 0; i < reps; i++ {
		sur.Observe(unseen[i], 1e-3)
		t0 := time.Now()
		_, ok := sur.Predict(unseen[reps+i])
		refitS = append(refitS, time.Since(t0).Seconds())
		m.check(ok, "farm: Surrogate.Predict after Observe")
	}
	sec = timeCalls(10*reps, func() { sur.Predict(unseen[reps]) })
	m.add("farm.surrogate_refit_ms_n384", 1e3*median(refitS), "ms")
	m.add("farm.surrogate_predict_us_n384", sec*1e6, "us")

	// Serving over loopback TCP. The farm is closed first so that a miss
	// answers from the surrogate without starting a compute beside the
	// measurement.
	svc.farm.Close()
	var hit, deg farm.HazardResponse
	var herr, derr error
	sec = timeCalls(10*reps, func() { hit, herr = svc.query(rest[0]) })
	m.check(herr == nil && !hit.Degraded && hit.PeakPGV == p.Peak, "farm: hit reply %+v (%v)", hit, herr)
	m.add("farm.serve_hit_us", sec*1e6, "us")
	sec = timeCalls(10*reps, func() { deg, derr = svc.query(unseen[2*reps]) })
	m.check(derr == nil && deg.Degraded && deg.Source == "surrogate", "farm: degraded reply %+v (%v)", deg, derr)
	m.add("farm.serve_degraded_us", sec*1e6, "us")
	svc.close()
}
