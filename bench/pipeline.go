package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/agg"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/meshgen"
	"repro/internal/meshpart"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/srcgen"
	"repro/internal/workflow"
)

// pipeStages are the stage spans of one pipeline repetition, in order. The
// first pipeSetupStages are the workload's set-up: everything before the
// solver is invoked.
var pipeStages = []string{
	"meshgen.GenerateStreamed", "meshpart.StreamPrePartition", "meshpart.OnDemand", "srcgen",
	"solver.Run", "workflow.Transfer", "workflow.Ingest+VerifyReplica",
}

const pipeSetupStages = 4

// pipeRep is what one repetition of the pipeline measured.
type pipeRep struct {
	wall      float64
	stageS    map[string]float64
	points    int
	surfaceMB float64
	flushes   int
	opens     int
	virtualS  float64 // priced by the PFS model, not measured
}

// pipelineRep runs the stages cmd/pipeline runs, with the literals it uses
// at its default flags, on a fresh simulated file system. The seed moves
// the rupture's hypocenter. Each stage is checked; the surface file's
// stripe checksums recorded by the writers are compared with a read-back
// of the file, and every archived replica with its registered MD5.
func pipelineRep(m *measurement, o options, tr *tracer, parent int, id string) pipeRep {
	rep := pipeRep{stageS: map[string]float64{}}
	g, h := o.scale.pipeDims, 400.0
	rng := rand.New(rand.NewSource(o.seed))
	hypoI, hypoK := g.NX-13+rng.Intn(9)-4, 6+rng.Intn(5)-2 // inside the fault window [8,NX-8) x [2,10)

	t0 := time.Now()
	stage := func(name string, fn func() error) bool {
		sp := tr.begin(parent, id, name)
		ts := time.Now()
		err := fn()
		rep.stageS[name] = time.Since(ts).Seconds()
		tr.end(sp)
		m.check(err == nil, "pipeline: %s: %v", name, err)
		return err == nil
	}

	aggCfg := agg.Config{Aggregators: 2, OpenThrottle: agg.DefaultOpenThrottle}
	scratch := pfs.New(pfs.Jaguar())
	scratch.SetStripe("in/", 0, 1<<20)
	scratch.SetStripe("out/", 0, 4<<20)
	q := cvm.SoCal(float64(g.NX-1)*h, float64(g.NY-1)*h, float64(g.NZ-1)*h, 500)
	topo := mpi.NewCart(2, 2, 1)
	var dc decomp.Decomp
	var srcs []source.SampledSource
	var res *solver.Result
	paths := []string{"out/surface.bin", "in/mesh.bin", "in/source.bin"}
	archive := workflow.Site{Name: "kraken-hpss", FS: pfs.New(pfs.Jaguar())}

	stages := []func() error{func() error {
		mst, err := meshgen.GenerateStreamed(scratch, q, meshgen.StreamSpec{
			Spec:        meshgen.Spec{Path: "in/mesh.bin", Global: g, H: h, Cores: 4},
			ChunkPlanes: 2,
			Agg:         aggCfg,
		})
		rep.points, rep.opens = mst.Points, mst.Opens
		rep.virtualS += mst.WritePhase.Elapsed
		return err
	}, func() error {
		var err error
		if dc, err = decomp.New(g, topo); err != nil {
			return err
		}
		pst, _, err := meshpart.StreamPrePartition(scratch, "in/mesh.bin", "parts", g, dc, agg.DefaultOpenThrottle)
		rep.virtualS += pst.Elapsed
		return err
	}, func() error {
		subs, ost, err := meshpart.OnDemand(scratch, "in/mesh.bin", g, dc, 2, 1)
		rep.virtualS += ost.Elapsed
		if err == nil && len(subs) != topo.Size() {
			err = fmt.Errorf("%d sub-meshes for %d ranks", len(subs), topo.Size())
		}
		return err
	}, func() error {
		var err error
		srcs, err = source.HaskellSpec{
			GJ: g.NY / 2, I0: 8, I1: g.NX - 8, K0: 2, K1: 10,
			HypoI: hypoI, HypoK: hypoK,
			H: h, Mw: 6.5, Vr: 2800, RiseTime: 1.0,
			Mu: 3.3e10, Dt: 0.02, NT: 500, TaperCells: 2,
		}.Generate()
		if err != nil {
			return err
		}
		rep.virtualS += srcgen.WriteSourceFile(scratch, "in/source.bin", srcs).Elapsed
		_, err = srcgen.PartitionTemporal(srcs, 6)
		return err
	}, func() error {
		// cmd/pipeline's Options literal: Variant is left unset there,
		// which is fd.Naive.
		var err error
		res, err = solver.Run(q, solver.Options{
			Global: g, H: h, Steps: o.scale.pipeSteps, Topo: topo,
			Comm: solver.AsyncReduced, ABC: solver.SpongeABC, SpongeWidth: 6,
			FreeSurface: true, Attenuation: true,
			Sources: srcs, TrackPGV: true,
			Surface: &solver.SurfaceOptions{
				FS: scratch, Path: "out/surface.bin",
				Every: 1, FlushEvery: 4,
				Agg: aggCfg,
			},
		})
		if err != nil {
			return err
		}
		so := res.Surface
		rep.surfaceMB, rep.flushes = float64(so.Bytes)/1e6, so.Flushes
		rep.opens += so.Opens
		rep.virtualS += so.Phase.Elapsed
		if so.Frames != o.scale.pipeSteps {
			return fmt.Errorf("%d surface frames for %d steps", so.Frames, o.scale.pipeSteps)
		}
		// Stripe checksums the writers recorded against a read-back.
		back, err := agg.FileStripeChecksums(scratch, "out/surface.bin")
		if err != nil {
			return err
		}
		if len(back) != len(so.Stripes) {
			return fmt.Errorf("%d stripes read back, %d recorded", len(back), len(so.Stripes))
		}
		for _, b := range back {
			if w, ok := so.Stripes[b.Index]; !ok || w.CRC64 != b.CRC64 || w.MD5 != b.MD5 {
				return fmt.Errorf("stripe %d checksum differs on read-back", b.Index)
			}
		}
		var peak float64
		for _, v := range res.PGVH {
			peak = math.Max(peak, v)
		}
		if !finite(peak) || peak <= 0 {
			return fmt.Errorf("PGVH max %g", peak)
		}
		return nil
	}, func() error {
		tr := workflow.NewTransferer(workflow.Link{BandwidthPerStream: 25e6, MaxStreams: 16, FailureRate: 0.05}, 42)
		tst, err := tr.Transfer(workflow.Site{Name: "jaguar-scratch", FS: scratch}, archive, paths, 8)
		if err == nil && !tst.Verified {
			err = fmt.Errorf("transfer not verified")
		}
		return err
	}, func() error {
		reg := workflow.NewRegistry()
		if _, err := reg.Ingest(archive, paths, 8, 17.7e6); err != nil {
			return err
		}
		for _, p := range paths {
			if err := reg.VerifyReplica(archive, p); err != nil {
				return err
			}
		}
		return nil
	}}
	for i, fn := range stages {
		if !stage(pipeStages[i], fn) {
			break // later stages need this one's output
		}
	}
	rep.wall = time.Since(t0).Seconds()
	return rep
}

func (r pipeRep) setupS() float64 {
	var s float64
	for _, n := range pipeStages[:pipeSetupStages] {
		s += r.stageS[n]
	}
	return s
}

func pipelineWorkload(o options, tr *tracer) measurement {
	// One discarded repetition first, traced or not: it grows the heap to
	// the 0.6 GB a repetition needs, which otherwise the first one pays for
	// in page faults.
	var m, discard measurement
	pipelineRep(&discard, o, nil, -1, "")
	m.attempted, m.failed, m.notes = discard.attempted, discard.failed, discard.notes
	if tr != nil {
		id := fmt.Sprintf("pipeline#%d", o.seed)
		run := tr.begin(-1, id, "pipeline")
		rep := pipelineRep(&m, o, tr, run, id)
		wall := tr.end(run)
		var stages float64
		for _, n := range pipeStages {
			stages += rep.stageS[n]
		}
		closure := math.Abs(stages-wall) / wall
		m.check(closure <= 0.02, "pipeline: stage spans sum to %.4f s of a %.4f s repetition", stages, wall)
		m.add("bench.traced_solve_s.pipeline", wall-rep.setupS(), "s")
		m.add("pipeline.span_closure_err", closure, "ratio")
		m.add("meshgen.stage_s", rep.stageS[pipeStages[0]], "s")
		m.add("meshgen.mpoints_per_s", float64(rep.points)/1e6/rep.stageS[pipeStages[0]], "Mpt/s")
		m.add("meshpart.stream_stage_s", rep.stageS[pipeStages[1]], "s")
		m.add("meshpart.ondemand_stage_s", rep.stageS[pipeStages[2]], "s")
		m.add("srcgen.stage_s", rep.stageS[pipeStages[3]], "s")
		m.add("solver.stage_s.pipeline", rep.stageS[pipeStages[4]], "s")
		m.add("workflow.transfer_stage_s", rep.stageS[pipeStages[5]], "s")
		m.add("workflow.ingest_stage_s", rep.stageS[pipeStages[6]], "s")
		m.add("output.surface_mb", rep.surfaceMB, "MB")
		m.add("output.flushes", float64(rep.flushes), "count")
		m.add("agg.opens", float64(rep.opens), "count")
		m.add("pfs.virtual_io_s", rep.virtualS, "s")
		return m
	}

	// Set-up and solve are the two parts of each timed repetition.
	var setups []float64
	for rep, measured := 0, 0.0; rep < o.scale.pipeMaxRep &&
		(rep < o.scale.pipeMinReps || measured < o.seconds); rep++ {
		runtime.GC() // the last repetition's file systems and fields
		c0 := cpuSeconds()
		r := pipelineRep(&m, o, nil, -1, "")
		m.cpuS = append(m.cpuS, cpuSeconds()-c0)
		setups = append(setups, r.setupS())
		m.solveS = append(m.solveS, r.wall-r.setupS())
		measured += r.wall
	}
	m.setupS = median(setups)
	return m
}
