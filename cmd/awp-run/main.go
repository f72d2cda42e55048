// Command awp-run executes a wave-propagation simulation from command-line
// flags: grid, spacing, step count, rank count, communication model, ABC
// choice and a point source, printing seismograms summary and PGV output.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"

	"repro/awp"
	"repro/internal/telemetry"
)

func main() {
	nx := flag.Int("nx", 48, "grid cells in x")
	ny := flag.Int("ny", 48, "grid cells in y")
	nz := flag.Int("nz", 32, "grid cells in z")
	h := flag.Float64("h", 200, "grid spacing, m")
	steps := flag.Int("steps", 300, "time steps")
	ranks := flag.Int("ranks", 1, "MPI ranks (goroutines)")
	threads := flag.Int("threads", 1, "cores per rank: runs ranks×threads single-goroutine ranks (§IV.D)")
	comm := flag.String("comm", "async-reduced", "comm model: sync|async|async-reduced|overlap")
	abc := flag.String("abc", "sponge", "absorbing boundary: none|sponge|mpml")
	model := flag.String("model", "socal", "velocity model: socal|layered|rock")
	cfl := flag.Float64("cfl", 0, "CFL safety factor for the automatic time step, in (0, 1] (0: 0.5)")
	mw := flag.Float64("m0", 1e16, "seismic moment, N*m")
	srcI := flag.Int("si", -1, "source i (default center)")
	srcJ := flag.Int("sj", -1, "source j (default center)")
	srcK := flag.Int("sk", -1, "source k (default center)")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON (chrome://tracing) of the run to this file")
	traceEvents := flag.Int("trace-events", 1<<15, "per-rank trace ring capacity (oldest events overwritten)")
	flag.Parse()

	if *ranks < 1 {
		fail("-ranks must be at least 1, got %d", *ranks)
	}
	if *srcI < 0 {
		*srcI = *nx / 2
	}
	if *srcJ < 0 {
		*srcJ = *ny / 2
	}
	if *srcK < 0 {
		*srcK = *nz / 2
	}

	dims := awp.Dims{NX: *nx, NY: *ny, NZ: *nz}
	var q awp.Model
	switch *model {
	case "socal":
		q = awp.SoCalModel(float64(*nx)**h, float64(*ny)**h, float64(*nz)**h, 500)
	case "layered":
		q = awp.LayeredModel()
	case "rock":
		q = awp.HomogeneousModel(awp.Material{Vp: 6000, Vs: 3464, Rho: 2700})
	default:
		fail("-model %q is not one of socal|layered|rock", *model)
	}

	sc := awp.Scenario{
		Dims: dims, H: *h, Steps: *steps, Ranks: *ranks,
		Threads:     *threads,
		CFL:         *cfl,
		FreeSurface: true, Attenuation: true,
		Sources: awp.PointMomentSource(*srcI, *srcJ, *srcK, *mw, 0.3, 0.08),
		// The distant receiver sits ten cells in from the x-high face, or
		// on the x-low face of a grid narrower than that.
		Receivers: [][3]int{{*srcI, *srcJ, 0}, {max(*nx-10, 0), *srcJ, 0}},
		TrackPGV:  true,
	}
	// Telemetry is the run's one clock: it times the timing line below.
	sc.Telemetry = &awp.TelemetryOptions{}
	if *trace != "" {
		sc.Telemetry.TraceEvents = *traceEvents
	}
	switch *comm {
	case "sync":
		sc.Comm = awp.Synchronous
	case "async":
		sc.Comm = awp.Asynchronous
	case "async-reduced":
		sc.Comm = awp.AsyncReduced
	case "overlap":
		sc.Comm = awp.AsyncOverlap
	default:
		fail("-comm %q is not one of sync|async|async-reduced|overlap", *comm)
	}
	switch *abc {
	case "none":
		sc.ABC = awp.NoABC
	case "sponge":
		sc.ABC = awp.SpongeABC
	case "mpml":
		sc.ABC = awp.MPMLABC
	default:
		fail("-abc %q is not one of none|sponge|mpml", *abc)
	}

	topo, err := awp.Topology(sc)
	if err != nil {
		fail("%v", err)
	}
	res, err := awp.Run(q, sc)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("awp-run: %v grid, h=%.0f m, dt=%.4f s, %d steps, %d ranks (%dx%dx%d), comm=%s abc=%s\n",
		dims, *h, res.Dt, res.Steps, topo.Size(), topo.PX, topo.PY, topo.PZ, *comm, *abc)
	fmt.Printf("epicentral PGVH: %.4e m/s; distant-receiver PGVH: %.4e m/s\n",
		awp.PGVH(res.Seismograms[0]), awp.PGVH(res.Seismograms[1]))
	var pgvMax float64
	for _, v := range res.PGVH {
		if v > pgvMax {
			pgvMax = v
		}
	}
	fmt.Printf("surface PGVH max: %.4e m/s\n", pgvMax)
	// The lines above round to four digits; this one is the bits, the
	// line to compare across -ranks, -threads and -comm or two builds.
	// (A hash's Write never returns an error.)
	digest := fnv.New64a()
	binary.Write(digest, binary.LittleEndian, res.PGVH)
	for _, s := range res.Seismograms {
		binary.Write(digest, binary.LittleEndian, awp.PGVH(s))
	}
	fmt.Printf("PGVH digest: %016x (FNV-64a of the map's and the receivers' float64 bits)\n", digest.Sum64())
	// Each Eq. 7 term is its phases' slowest-rank seconds, summed.
	term := func(phases ...telemetry.Phase) (sec float64) {
		for _, p := range phases {
			sec += res.Telemetry.Stat(p).MaxRankSec
		}
		return sec
	}
	fmt.Printf("timing: comp=%.2fs comm=%.2fs sync=%.2fs output=%.2fs active=%.3f\n",
		term(telemetry.CompPhases...), term(telemetry.CommPhases...), term(telemetry.Sync), term(telemetry.Output), res.ActiveShare)

	if *trace != "" {
		if err := writeTrace(*trace, res.Telemetry); err != nil {
			fail("%v", err)
		}
	}
}

// fail reports a bad flag or a failed run on one prefixed line and exits 1.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "awp-run: "+format+"\n", args...)
	os.Exit(1)
}

// writeTrace exports the telemetry report as Chrome trace-event JSON and
// prints the per-phase summary table.
func writeTrace(path string, rep *awp.TelemetryReport) error {
	if rep == nil {
		return fmt.Errorf("no telemetry report in result")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %d events from %d ranks written to %s (%d dropped)\n",
		len(rep.Events), rep.Ranks, path, rep.DroppedEvents)
	fmt.Printf("%-12s %10s %12s %14s %14s\n", "phase", "spans", "total_s", "mean_s/step", "p99_s/step")
	for _, ps := range rep.Phases {
		if ps.Spans == 0 {
			continue
		}
		fmt.Printf("%-12s %10d %12.6f %14.9f %14.9f\n",
			ps.Phase, ps.Spans, ps.TotalSec, ps.MeanSec, ps.P99Sec)
	}
	return nil
}
