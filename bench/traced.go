package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// tracedPass is a -trace 1 run: every workload once with benchmark-side
// spans (and, for the solve workloads, the solver's own telemetry), then
// the layer probes, in this one process. It reports every per-layer metric
// whatever -workload named, because the layers are the same program; the
// wall of each traced workload is reported so that it can be set against
// the untraced solve_s as the tracing overhead.
func tracedPass(o options) resultLine {
	tr := newTracer()
	var total measurement
	pgv := map[string][]float64{}
	for _, w := range workloads {
		m := w.run(o, tr)
		total.attempted += m.attempted
		total.failed += m.failed
		total.notes = append(total.notes, m.notes...)
		total.layer = append(total.layer, m.layer...)
		pgv[w.name] = m.pgv
		// The next workload starts from a collected heap, as its own
		// process would.
		runtime.GC()
		debug.FreeOSMemory()
	}

	// The decomposed run against the single-rank run of the same scenario.
	one, eight := pgv["solve-1rank"], pgv["solve-8rank"]
	linf, peak := math.Inf(1), 0.0
	if len(one) > 0 && len(one) == len(eight) {
		linf = 0
		for i := range one {
			linf = math.Max(linf, math.Abs(one[i]-eight[i]))
			peak = math.Max(peak, math.Abs(one[i]))
		}
		linf /= peak
	}
	total.check(linf <= 1e-6, "solve-8rank PGV map differs from solve-1rank's by %g relative L-inf", linf)
	identical := 0.0
	if linf == 0 {
		identical = 1
	}
	total.add("solver.decomp_bit_identical", identical, "count")
	total.add("solver.decomp_linf_rel", linf, "ratio")

	runProbes(&total, o, tr)

	for _, n := range total.notes {
		fmt.Println("note:", n)
	}
	if err := tr.writeChromeTrace(o.traceOut); err != nil {
		total.check(false, "%v", err)
		fmt.Fprintln(os.Stderr, "bench:", err)
	} else {
		fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), o.traceOut)
	}
	tr.printSelfTimes(12)

	res := resultLine{
		Attempted: total.attempted, Failed: total.failed,
		Metrics: map[string]metricValue{},
	}
	for _, v := range total.layer {
		if _, dup := res.Metrics[v.name]; dup {
			res.Failed++
			fmt.Println("note: metric reported twice:", v.name)
		}
		res.Metrics[v.name] = metricValue{v.value, v.unit}
	}
	res.Correct = res.Failed == 0
	return res
}
