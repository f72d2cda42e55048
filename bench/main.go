// Command bench is the repo's one fixed benchmark: five workloads, four
// end-to-end metrics measured with tracing off, and a traced pass that
// re-drives every workload with benchmark-side spans and then probes each
// layer through its public functions. README.md beside this file says why
// each workload exists and which end-to-end metric each layer metric
// should move.
//
//	go run ./bench -seed 1              # untraced suite, one child process per workload
//	go run ./bench -seed 1 -trace 1     # ... followed by the traced pass
//	go run ./bench -seed 1 -repeat 2    # two sets, relative difference beside each bound
//	go run ./bench -workload solve-8rank -seed 7 -seconds 12 -trace 0
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"} — the form BENCHMARK.json's
// driver reads.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a -workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	seed     int64
	workload string
	seconds  float64
	trace    bool
	traceOut string
	repeat   int
	scale    scale
}

func main() {
	var o options
	var traceFlag int
	var scaleName string
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: source-cell jitter and Latin-hypercube seed")
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process and end with a JSON result line (default: the whole suite, one child process per workload)")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "timed repetitions continue until this many seconds are measured (each workload has a floor and a cap on its repetitions)")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics with tracing off; 1: the traced pass (spans, Chrome trace, layer probes)")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome-trace JSON path of the traced pass (default .bench_build/trace-seed<n>.json)")
	flag.IntVar(&o.repeat, "repeat", 1, "suite mode: run the untraced suite this many times and compare the sets")
	flag.StringVar(&scaleName, "scale", "full", "smoke|full")
	flag.Parse()

	var ok bool
	if o.scale, ok = scales[scaleName]; !ok || flag.NArg() != 0 || traceFlag < 0 || traceFlag > 1 || o.repeat < 1 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-seed%d.json", o.seed))
	}

	if o.workload == "" {
		os.Exit(runSuite(o))
	}
	w := workloadByName(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	printHeader(o)
	var res resultLine
	if o.trace {
		res = tracedPass(o)
	} else {
		res = untracedRun(w, o)
	}
	label := o.workload
	if o.trace {
		label = "traced" // the traced pass covers every workload and layer
	}
	printMetrics(label, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// untracedRun measures one workload in this process with tracing off and
// reports the end-to-end metrics. CPU and peak RSS are this process's own
// rusage, which is why the suite gives every workload a fresh child.
func untracedRun(w *workload, o options) resultLine {
	m := w.run(o, nil)
	for _, n := range m.notes {
		fmt.Println("note:", n)
	}
	res := resultLine{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics: map[string]metricValue{
			"solve_s":     {median(m.solveS), "s"},
			"setup_s":     {m.setupS, "s"},
			"cpu_s":       {median(m.cpuS), "s"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		},
	}
	fmt.Printf("%-12s reps=%d solve_s=%s failed_share=%.4f (%d of %d)\n", w.name, len(m.solveS),
		fmtSeries(m.solveS), float64(m.failed)/float64(m.attempted), m.failed, m.attempted)
	for _, x := range m.layer {
		fmt.Printf("%-12s %-28s %14.6g %s (informational, tracing off)\n", w.name, x.name, x.value, x.unit)
	}
	return res
}

func printMetrics(label string, res resultLine) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Printf("%-12s %-44s %16.6g %s\n", label, n, v.Value, v.Unit)
	}
}

// runSuite runs every workload in its own child process (fresh heap; the
// child reports its own rusage), -repeat times, then the traced pass once
// when -trace 1.
func runSuite(o options) int {
	printHeader(o)
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	child := func(workload string, trace int) (resultLine, error) {
		args := []string{
			"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace), "-trace-out", o.traceOut, "-scale", o.scale.name,
		}
		cmd := exec.Command(exe, args...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		runErr := cmd.Run() // waits for the child to end
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		for _, l := range lines[:len(lines)-1] {
			if !strings.HasPrefix(l, "host:") {
				fmt.Println(l)
			}
		}
		var res resultLine
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", workload, runErr)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return res, fmt.Errorf("%s: result line: %w", workload, err)
		}
		fmt.Printf("%-12s run wall %.1f s, correct=%v\n\n", workload, time.Since(t0).Seconds(), res.Correct)
		return res, nil
	}

	status := 0
	sets := make([]map[string]resultLine, o.repeat)
	for r := range sets {
		sets[r] = map[string]resultLine{}
		for _, w := range workloads {
			res, err := child(w.name, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.Correct {
				status = 1
			}
			sets[r][w.name] = res
		}
	}
	if o.repeat > 1 {
		fmt.Println("set-to-set relative difference (last set against first) beside each bound:")
		first, last := sets[0], sets[o.repeat-1]
		for _, w := range workloads {
			for _, spec := range endToEnd {
				a, b := first[w.name].Metrics[spec.Name].Value, last[w.name].Metrics[spec.Name].Value
				rel := (b - a) / a
				verdict := "within"
				if rel > spec.Bound {
					verdict = "OUTSIDE"
				}
				fmt.Printf("%-12s %-12s %12.6g -> %12.6g  %+7.2f%%  bound %4.0f%%  %s\n",
					w.name, spec.Name, a, b, 100*rel, 100*spec.Bound, verdict)
			}
		}
		fmt.Println()
	}
	if o.trace {
		res, err := child(workloads[0].name, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			status = 1
		}
		// Tracing overhead: the traced pass's wall for each workload
		// against the untraced median of the last set.
		for _, w := range workloads {
			traced := res.Metrics["bench.traced_solve_s."+w.name].Value
			base := sets[o.repeat-1][w.name].Metrics["solve_s"].Value
			fmt.Printf("%-12s bench.trace_overhead_share %+8.4f ratio (traced %.4g s / untraced %.4g s - 1)\n",
				w.name, traced/base-1, traced, base)
		}
	}
	return status
}

func printHeader(o options) {
	h := hostInfo()
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d l2=%s l3=%s go=%s seed=%d scale=%s seconds=%g\n",
		h.cpuModel, runtime.NumCPU(), runtime.GOMAXPROCS(0), h.l2, h.l3, runtime.Version(),
		o.seed, o.scale.name, o.seconds)
}

func fmtSeries(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
