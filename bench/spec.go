package main

import (
	"fmt"

	"repro/internal/grid"
)

// metricSpec mirrors one entry of BENCHMARK.json; bench_test.go holds the
// two equal.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports with tracing off. A
// bound is the share of the parent's median by which the metric may worsen.
// The three timing bounds are the most the contract allows: the reference
// host flips between two speed states about 25% apart every half minute or
// so, which no statistic over a 20 s run averages out (README.md has the
// measured spreads).
var endToEnd = []metricSpec{
	{"solve_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// run measures the workload. tr is nil with tracing off; with a
	// tracer it runs once, with spans, and fills measurement.layer.
	run func(o options, tr *tracer) measurement
}

// measurement is what one workload run hands back.
type measurement struct {
	attempted, failed int
	solveS, cpuS      []float64 // one entry per timed repetition
	setupS            float64
	notes             []string  // what failed verification
	pgv               []float64 // a traced solve run's PGVH map, for the decomposition check
	// layer holds the per-layer metrics of a traced run; an untraced run
	// may fill it too, and has them printed as information only.
	layer []namedValue
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// check counts one attempted operation and, when it did not hold, one
// failed one.
func (m *measurement) check(ok bool, format string, args ...any) {
	m.attempted++
	if !ok {
		m.fail(format, args...)
	}
}

func (m *measurement) add(name string, value float64, unit string) {
	m.layer = append(m.layer, namedValue{name, value, unit})
}

var workloads = []*workload{
	{name: "solve-1rank", run: solveWorkload(0),
		why: "plain single-threaded baseline: fd, attenuation and sponge do >95% of the work, halo and mpi none"},
	{name: "solve-8rank", run: solveWorkload(1),
		why: "same scenario on 2x2x2 ranks: pack/send/recv/unpack and rank wake-ups dominate, kernels barely move it"},
	{name: "solve-mpml", run: solveWorkload(2),
		why: "production M-PML boundary on a 2-thread pool: serial PML zones and sched tiles, no halo"},
	{name: "pipeline", run: pipelineWorkload,
		why: "cmd/pipeline stages in order: the only workload where meshgen, meshpart, agg, output, pfs and workflow cost anything"},
	{name: "farm-serve", run: farmWorkload,
		why: "384 small jobs behind an HTTP front end under open-loop queries: per-job set-up, queue, store and surrogate refit"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// scale fixes every size the workloads and probes use. "full" is what
// BENCHMARK.json's driver runs; "smoke" exists so bench_test.go can keep
// the benchmark compiling and its metric names honest in a few seconds.
type scale struct {
	name string

	solveDims               grid.Dims
	solveH                  float64
	solveSteps, mpmlSteps   int
	sourceK, jitter         int
	setupReps               int // timed set-up repetitions after one warm-up
	solveMinReps            [3]int
	solveMaxReps            [3]int
	frontWindow             int // steps per denormal-scan window of the traced run
	pipeDims                grid.Dims
	pipeSteps               int
	pipeMinReps, pipeMaxRep int
	farmScenarios           int
	farmRate                float64 // open-loop queries per second
	farmSetupReps           int
	probeReps               int
	triadBytes              int // per array
	ioBytes                 int
}

var scales = map[string]scale{
	"full": {
		name:      "full",
		solveDims: grid.Dims{NX: 56, NY: 56, NZ: 40}, solveH: 200,
		solveSteps: 450, mpmlSteps: 280, sourceK: 12, jitter: 4,
		setupReps:    15,
		solveMinReps: [3]int{2, 3, 2}, solveMaxReps: [3]int{4, 6, 4},
		frontWindow: 20,
		pipeDims:    grid.Dims{NX: 192, NY: 128, NZ: 64}, pipeSteps: 12,
		pipeMinReps: 3, pipeMaxRep: 8,
		farmScenarios: 384, farmRate: 50, farmSetupReps: 9,
		probeReps:  9,
		triadBytes: 64 << 20, ioBytes: 32 << 20,
	},
	"smoke": {
		name:      "smoke",
		solveDims: grid.Dims{NX: 24, NY: 24, NZ: 24}, solveH: 200,
		solveSteps: 8, mpmlSteps: 6, sourceK: 8, jitter: 2,
		setupReps:    1,
		solveMinReps: [3]int{1, 1, 1}, solveMaxReps: [3]int{1, 1, 1},
		frontWindow: 4,
		pipeDims:    grid.Dims{NX: 32, NY: 24, NZ: 12}, pipeSteps: 8,
		pipeMinReps: 1, pipeMaxRep: 1,
		farmScenarios: 6, farmRate: 200, farmSetupReps: 1,
		probeReps:  2,
		triadBytes: 1 << 20, ioBytes: 3 << 20,
	},
}

// surrogateN is the training-set size the surrogate probes run at: the
// farm-serve ensemble size, at every scale, since the metric names carry it.
const surrogateN = 384

// perLayer lists every metric the traced pass reports. None is gated.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	add("higher", "GB/s", "host.triad_gbps", "fd.gbps_computed.default")
	add("lower", "ns", "cvm.query_ns", "medium.build_ns_per_cell",
		"fd.velocity_ns_per_cell.default", "fd.velocity_ns_per_cell.fused",
		"fd.stress_ns_per_cell.default", "fd.stress_ns_per_cell.fused", "fd.stress_ns_per_cell.naive",
		"attenuation.apply_ns_per_cell", "attenuation.fused_stress_ns_per_cell",
		"boundary.sponge_ns_per_cell", "boundary.pml_ns_per_pml_cell", "boundary.freesurface_ns_per_surface_cell",
		"sched.dispatch_ns_per_tile")
	add("lower", "B", "fd.bytes_per_cell_computed")
	add("higher", "ratio", "fd.roofline_share.default", "sched.stress_speedup_2t")
	add("lower", "ratio", "fd.denormal_slowdown", "boundary.pml_cell_share")
	add("lower", "us", "mpi.pingpong_us_4kb", "mpi.barrier_us_8r", "mpi.allreduce_us_8r", "mpi.world_spawn_us_8r",
		"solver.halo_exchange_us.8rank")
	add("lower", "count", "solver.halo_msgs_per_step.8rank")
	add("lower", "KB", "solver.halo_kb_per_step.8rank")
	for _, w := range []string{"1rank", "8rank", "mpml"} {
		add("lower", "ms", "solver.step_ms_p50."+w, "solver.step_ms_p95."+w, "solver.new_stepper_ms."+w)
		add("lower", "ns", "solver.step_ns_per_cell_front."+w, "solver.step_ns_per_cell_filled."+w)
	}
	add("lower", "count", "solver.front_steps.1rank")
	add("lower", "ratio", "solver.denormal_share_peak.1rank")
	for _, w := range []string{"1rank", "8rank"} {
		for _, p := range stepPhases {
			add("lower", "ratio", "solver.phase_share."+p.String()+"."+w)
		}
		add("lower", "ratio", "solver.phase_closure_err."+w)
	}
	add("lower", "ratio", "solver.recv_wait_share.8rank", "solver.decomp_linf_rel")
	add("higher", "count", "solver.decomp_bit_identical")
	add("lower", "s", "meshgen.stage_s", "meshpart.stream_stage_s", "meshpart.ondemand_stage_s", "srcgen.stage_s",
		"solver.stage_s.pipeline", "workflow.transfer_stage_s", "workflow.ingest_stage_s", "pfs.virtual_io_s")
	add("higher", "Mpt/s", "meshgen.mpoints_per_s")
	add("lower", "ratio", "pipeline.span_closure_err")
	add("lower", "MB", "output.surface_mb")
	add("lower", "count", "output.flushes", "agg.opens")
	add("higher", "MB/s", "agg.write_mb_per_s", "pfs.write_mb_per_s", "pfs.read_mb_per_s",
		"checkpoint.save_mb_per_s", "checkpoint.load_mb_per_s", "output.md5_mb_per_s")
	add("lower", "ms", "farm.job_solo_ms", "farm.surrogate_refit_ms_n384", "farm.query_ms_p50", "farm.query_ms_p95",
		"farm.generator_late_ms_max")
	add("lower", "ratio", "farm.job_setup_share", "farm.degraded_share")
	add("lower", "us", "farm.store_put_us", "farm.store_get_us", "farm.surrogate_predict_us_n384",
		"farm.serve_hit_us", "farm.serve_degraded_us")
	add("lower", "count", "farm.attempts_per_scenario")
	add("higher", "count", "farm.queries_sent")
	add("lower", "s", "farm.job_phase_s")
	for _, w := range workloads {
		add("lower", "s", "bench.traced_solve_s."+w.name)
	}
	return out
}
