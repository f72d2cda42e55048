package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/core/fd"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// phaseTerm is one Eq. 7 term of one comm-model run: the telemetry-measured
// per-rank seconds per step next to the model prediction.
type phaseTerm struct {
	Term         string  `json:"term"` // comp | comm | sync | output
	MeasuredSec  float64 `json:"measured_sec_per_step"`
	PredictedSec float64 `json:"predicted_sec_per_step"`
	RelError     float64 `json:"rel_error"`
}

// phaseModelRun is the full measured-vs-predicted decomposition of one comm
// model, plus the raw per-phase telemetry breakdown behind it.
type phaseModelRun struct {
	Model            string                 `json:"comm_model"`
	Topo             string                 `json:"topo"`
	Subgrid          string                 `json:"subgrid"` // per-rank dims
	Ranks            int                    `json:"ranks"`
	Steps            int                    `json:"steps"`
	MsgsPerRankStep  float64                `json:"msgs_per_rank_step"`
	BytesPerRankStep float64                `json:"bytes_per_rank_step"`
	Terms            []phaseTerm            `json:"terms"`
	MeasuredStepSec  float64                `json:"measured_step_sec"`
	PredictedStepSec float64                `json:"predicted_step_sec"`
	StepRelError     float64                `json:"step_rel_error"`
	Breakdown        []telemetry.PhaseStats `json:"phase_breakdown"`
}

// phaseCalibration is the serial reference used to predict the per-rank
// compute and output terms (the Eq. 8 numerator: T(N,1) has no comm).
type phaseCalibration struct {
	Global        string  `json:"global"`
	Steps         int     `json:"steps"`
	CompSecStep   float64 `json:"comp_sec_per_step"`
	OutputSecStep float64 `json:"output_sec_per_step"`
}

// phaseFit records the alpha/beta recovery from the telemetry comm samples.
type phaseFit struct {
	AlphaSec       float64 `json:"alpha_sec_per_msg"`
	BetaSecPerByte float64 `json:"beta_sec_per_byte"`
	Samples        int     `json:"samples"`
}

// phaseIODemo reports the IO/Checkpoint span attribution over the simulated
// parallel file system (measured only).
type phaseIODemo struct {
	IOSec          float64 `json:"io_sec"`
	IOSpans        int64   `json:"io_spans"`
	CheckpointSec  float64 `json:"checkpoint_sec"`
	CkptSpans      int64   `json:"checkpoint_spans"`
	BytesPerRank   int     `json:"bytes_per_rank"`
	RoundTripMatch bool    `json:"round_trip_match"`
}

type phaseReport struct {
	GeneratedBy string                    `json:"generated_by"`
	GOOS        string                    `json:"goos"`
	GOARCH      string                    `json:"goarch"`
	GOMAXPROCS  int                       `json:"gomaxprocs"`
	NumCPU      int                       `json:"num_cpu"`
	Warning     string                    `json:"warning,omitempty"`
	Calibration phaseCalibration          `json:"calibration"`
	Fit         *phaseFit                 `json:"fit,omitempty"`
	Runs        []phaseModelRun           `json:"runs"`
	IO          phaseIODemo               `json:"io"`
	Neighbors   []telemetry.NeighborStats `json:"neighbors,omitempty"`
}

// compPhases groups the telemetry phases that make up Eq. 7's Tcomp.
var compPhases = []telemetry.Phase{
	telemetry.Velocity, telemetry.Stress, telemetry.Attenuation, telemetry.Boundary,
}

// commPhases groups the phases that make up the per-message Tcomm.
var commPhases = []telemetry.Phase{
	telemetry.Pack, telemetry.Send, telemetry.Recv, telemetry.Unpack,
}

// phasesRun executes one telemetry-instrumented solver run and returns the
// aggregated report. The scenario mirrors the solver test fixture: sponge
// ABC, free surface, attenuation, explosion source, receivers, PGV maps —
// every instrumented phase is exercised.
func phasesRun(topo mpi.Cart, sub grid.Dims, model solver.CommModel, steps int) *telemetry.Report {
	g := grid.Dims{NX: sub.NX * topo.PX, NY: sub.NY * topo.PY, NZ: sub.NZ * topo.PZ}
	q := cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700})
	src := source.PointSource{
		GI: g.NX / 2, GJ: g.NY / 2, GK: g.NZ / 2, M0: 1e15,
		Tensor: source.Explosion, STF: source.GaussianPulse(0.06, 0.02),
	}
	res, err := solver.Run(q, solver.Options{
		Global: g, H: 100, Steps: steps, Topo: topo,
		Comm:     model,
		Blocking: fd.DefaultBlocking,
		ABC:      solver.SpongeABC, SpongeWidth: 4,
		FreeSurface: true, Attenuation: true,
		Sources:   []source.SampledSource{src.Sample(0.002, 200)},
		Receivers: [][3]int{{g.NX / 2, g.NY / 2, 0}, {2, 2, 0}},
		TrackPGV:  true,
		Telemetry: &telemetry.Options{},
	})
	if err != nil {
		panic(err)
	}
	return res.Telemetry
}

// msgTraffic returns the per-rank per-step message count and byte volume of
// a run from its aggregated neighbor counters.
func msgTraffic(rep *telemetry.Report, ranks, steps int) (msgs, bytes float64) {
	var sentMsgs, sentFloats int64
	for _, nb := range rep.Neighbors {
		sentMsgs += nb.SentMsgs
		sentFloats += nb.SentFloats
	}
	norm := float64(ranks * steps)
	return float64(sentMsgs) / norm, float64(sentFloats) * 4 / norm
}

// phases cross-validates the telemetry subsystem against the Eq. 7/8
// performance model: a serial calibration run prices Tcomp and Toutput,
// alpha/beta are fitted from telemetry comm samples (perfmodel.FitAlphaBeta
// over a topology/subgrid sweep), and then each comm model's
// measured per-phase breakdown is compared term by term against the model
// prediction. Writes BENCH_3.json (or outPath).
func phases(outPath string, short bool) {
	header("Phases: telemetry breakdown vs Eq. 7/8 prediction")
	rep := phaseReport{
		GeneratedBy: "cmd/benchtab -exp phases",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d\n", rep.GOMAXPROCS, rep.NumCPU)
	if rep.GOMAXPROCS == 1 {
		rep.Warning = "GOMAXPROCS=1: ranks share one OS thread; phase timings measure " +
			"serialized goroutine execution, not hardware parallelism"
		fmt.Printf("WARNING: %s\n", rep.Warning)
	}

	mainSteps, fitSteps, calSteps := 120, 60, 120
	if short {
		mainSteps, fitSteps, calSteps = 40, 24, 40
	}
	topo := mpi.NewCart(2, 2, 1)
	sub := grid.Dims{NX: 16, NY: 16, NZ: 16}

	// --- Calibration: serial run of the same global grid. Per-rank Tcomp
	// and Toutput are predicted as the serial totals divided by the rank
	// count (Eq. 8's numerator: T(N,1) is pure compute + output). Cache
	// effects of the smaller per-rank working set (§V.A superlinearity)
	// land in the relative error on purpose.
	calRep := phasesRun(mpi.NewCart(1, 1, 1), grid.Dims{
		NX: sub.NX * topo.PX, NY: sub.NY * topo.PY, NZ: sub.NZ * topo.PZ,
	}, solver.Asynchronous, calSteps)
	cal := phaseCalibration{
		Global:        fmt.Sprintf("%dx%dx%d", sub.NX*topo.PX, sub.NY*topo.PY, sub.NZ*topo.PZ),
		Steps:         calSteps,
		CompSecStep:   calRep.MeanStepSec(compPhases...),
		OutputSecStep: calRep.MeanStepSec(telemetry.Output),
	}
	rep.Calibration = cal
	fmt.Printf("\ncalibration (%s serial, %d steps): comp %.3g s/step, output %.3g s/step\n",
		cal.Global, cal.Steps, cal.CompSecStep, cal.OutputSecStep)

	// --- Fit alpha/beta from telemetry comm samples. The topology sweep
	// varies the per-rank message count (one per neighbor per phase) and
	// the subgrid sweep varies bytes at fixed count, so the two terms
	// separate; counts and comm seconds both come from the telemetry
	// subsystem under test.
	var samples []perfmodel.CommSample
	for _, ft := range []mpi.Cart{mpi.NewCart(2, 1, 1), mpi.NewCart(2, 2, 1), mpi.NewCart(2, 2, 2)} {
		for _, fs := range []grid.Dims{{NX: 12, NY: 12, NZ: 12}, {NX: 16, NY: 16, NZ: 16}} {
			r := phasesRun(ft, fs, solver.Asynchronous, fitSteps)
			msgs, bytes := msgTraffic(r, ft.Size(), fitSteps)
			samples = append(samples, perfmodel.CommSample{
				Msgs:  int(msgs + 0.5),
				Bytes: bytes,
				Sec:   r.MeanStepSec(commPhases...),
			})
		}
	}
	alpha, beta, ok := perfmodel.FitAlphaBeta(samples)
	if !ok {
		fmt.Println("\nalpha/beta fit failed: samples cannot separate the terms")
	} else {
		rep.Fit = &phaseFit{AlphaSec: alpha, BetaSecPerByte: beta, Samples: len(samples)}
		fmt.Printf("fitted alpha = %.3g s/msg, beta = %.3g s/B over %d telemetry samples\n",
			alpha, beta, len(samples))
	}

	// --- Measured vs predicted, per comm model.
	models := []struct {
		name  string
		model solver.CommModel
	}{
		{"sync", solver.Synchronous},
		{"async", solver.Asynchronous},
		{"async-reduced", solver.AsyncReduced},
		{"overlap", solver.AsyncOverlap},
	}
	relErr := func(pred, meas float64) float64 {
		return math.Abs(pred-meas) / math.Max(meas, 1e-12)
	}
	fmt.Printf("\n%-14s %-8s %14s %14s %10s\n", "model", "term", "measured_s", "predicted_s", "rel_err")
	for _, m := range models {
		r := phasesRun(topo, sub, m.model, mainSteps)
		msgs, bytes := msgTraffic(r, topo.Size(), mainSteps)
		run := phaseModelRun{
			Model:   m.name,
			Topo:    fmt.Sprintf("%dx%dx%d", topo.PX, topo.PY, topo.PZ),
			Subgrid: sub.String(), Ranks: topo.Size(), Steps: mainSteps,
			MsgsPerRankStep: msgs, BytesPerRankStep: bytes,
			Breakdown: r.Phases,
		}
		// Tsync: the synchronous model barriers after each phase (the
		// 4*alpha*log2(p+1) term of Eq. 7, NUMA factor 1 in-process); the
		// async models run barrier-free, so the prediction is zero.
		predSync := 0.0
		if m.model == solver.Synchronous {
			predSync = 4 * alpha * math.Log2(float64(topo.Size())+1)
		}
		terms := []phaseTerm{
			{Term: "comp",
				MeasuredSec:  r.MeanStepSec(compPhases...),
				PredictedSec: cal.CompSecStep / float64(topo.Size())},
			{Term: "comm",
				MeasuredSec:  r.MeanStepSec(commPhases...),
				PredictedSec: perfmodel.MessageCost(alpha, beta, int(msgs+0.5), bytes)},
			{Term: "sync",
				MeasuredSec:  r.MeanStepSec(telemetry.Sync),
				PredictedSec: predSync},
			{Term: "output",
				MeasuredSec:  r.MeanStepSec(telemetry.Output),
				PredictedSec: cal.OutputSecStep / float64(topo.Size())},
		}
		for i := range terms {
			t := &terms[i]
			t.RelError = relErr(t.PredictedSec, t.MeasuredSec)
			run.MeasuredStepSec += t.MeasuredSec
			run.PredictedStepSec += t.PredictedSec
			fmt.Printf("%-14s %-8s %14.3g %14.3g %9.1f%%\n",
				m.name, t.Term, t.MeasuredSec, t.PredictedSec, 100*t.RelError)
		}
		run.Terms = terms
		run.StepRelError = relErr(run.PredictedStepSec, run.MeasuredStepSec)
		rep.Runs = append(rep.Runs, run)
		fmt.Printf("%-14s %-8s %14.3g %14.3g %9.1f%%\n",
			m.name, "step", run.MeasuredStepSec, run.PredictedStepSec, 100*run.StepRelError)
		if m.model == solver.Asynchronous {
			rep.Neighbors = r.Neighbors
		}
	}

	// --- IO/Checkpoint attribution over the simulated parallel file
	// system: one rank's state round-trips through checkpoint.Save/Load and
	// an indexed view write/read, each span landing in its phase.
	rep.IO = phasesIODemo()
	fmt.Printf("\nio demo: io %.3g s over %d spans, checkpoint %.3g s over %d spans, round-trip match %v\n",
		rep.IO.IOSec, rep.IO.IOSpans, rep.IO.CheckpointSec, rep.IO.CkptSpans, rep.IO.RoundTripMatch)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: write %s: %v\n", outPath, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s (%d model runs)\n", outPath, len(rep.Runs))
}

// phasesIODemo exercises the IO and Checkpoint telemetry phases against the
// simulated PFS and verifies the data round-trips intact.
func phasesIODemo() phaseIODemo {
	rec := telemetry.NewRecorder(0, 16)
	fsys := pfs.New(pfs.Jaguar())
	d := grid.Dims{NX: 16, NY: 16, NZ: 16}

	st := fd.NewState(d)
	vx := st.VX.Data()
	for i := range vx {
		vx[i] = float32(i%97) * 1e-3
	}
	_, saveErr := checkpoint.Save(fsys, "ckpt", 0, 10, st, nil, rec)
	st2 := fd.NewState(d)
	err := checkpoint.Load(fsys, "ckpt", 0, 10, st2, nil, rec)
	match := saveErr == nil && err == nil && slices.Equal(vx, st2.VX.Data())

	segs := mpiio.BlockSegments(d, 0, d.NX, 0, d.NY, 0, 1, 4)
	payload := make([]byte, mpiio.TotalLen(segs))
	for i := range payload {
		payload[i] = byte(i)
	}
	werr := mpiio.WriteIndexed(fsys, "surface.bin", segs, payload, rec)
	back, err := mpiio.ReadIndexed(fsys, "surface.bin", segs, rec)
	match = match && werr == nil && err == nil && bytes.Equal(back, payload)

	ioSec, ioN := rec.PhaseTotal(telemetry.IO)
	ckSec, ckN := rec.PhaseTotal(telemetry.Checkpoint)
	return phaseIODemo{
		IOSec: ioSec, IOSpans: ioN,
		CheckpointSec: ckSec, CkptSpans: ckN,
		BytesPerRank:   len(payload),
		RoundTripMatch: match,
	}
}
