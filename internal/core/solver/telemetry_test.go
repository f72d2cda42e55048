package solver

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/cvm"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Telemetry must be a pure observer: enabling it cannot change a single
// bit of the physics, under any comm model or thread count.
func TestTelemetryBitIdentity(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	models := []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap}
	for _, model := range models {
		for _, threads := range []int{1, 4} {
			mk := func(tel *telemetry.Options) Options {
				opt := baseOptions(mpi.NewCart(2, 2, 1))
				opt.Steps = 40
				opt.Comm = model
				opt.Threads = threads
				opt.Telemetry = tel
				return opt
			}
			ref, err := Run(q, mk(nil))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(q, mk(&telemetry.Options{TraceEvents: 256}))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v/threads=%d", model, threads)
			expectResultsExact(t, label, ref, got)
			if ref.Telemetry != nil {
				t.Fatal("report present with telemetry off")
			}
			rep := got.Telemetry
			if rep == nil {
				t.Fatal("report missing with telemetry on")
			}
			if rep.Ranks != 4 || rep.StepWindows != 40 {
				t.Fatalf("%s: report ranks=%d windows=%d", label, rep.Ranks, rep.StepWindows)
			}
			if rep.Stat(telemetry.Velocity).Spans == 0 || rep.Stat(telemetry.Stress).Spans == 0 {
				t.Fatalf("%s: compute phases unrecorded", label)
			}
			for _, p := range []telemetry.Phase{telemetry.Pack, telemetry.Send, telemetry.Recv, telemetry.Unpack} {
				if rep.Stat(p).Spans == 0 {
					t.Fatalf("%s: comm phase %v unrecorded", label, p)
				}
			}
			if syncSpans := rep.Stat(telemetry.Sync).Spans; (model == Synchronous) != (syncSpans > 0) {
				t.Fatalf("%s: sync spans = %d", label, syncSpans)
			}
			if len(rep.Neighbors) == 0 {
				t.Fatalf("%s: neighbor counters missing", label)
			}
			if len(rep.Events) == 0 {
				t.Fatalf("%s: event trace empty", label)
			}
			// The four ranks own equal subgrids and take equal numbers of
			// steps, so the run's share is the mean of theirs.
			mean := 0.0
			for _, share := range rep.ActiveShare {
				if share <= 0 || share >= 1 {
					t.Fatalf("%s: per-rank active shares %v, want each inside (0, 1)", label, rep.ActiveShare)
				}
				mean += share / 4
			}
			if len(rep.ActiveShare) != 4 || math.Abs(mean-got.ActiveShare) > 1e-12 || ref.ActiveShare != got.ActiveShare {
				t.Fatalf("%s: per-rank active shares %v, Result.ActiveShare %g (telemetry off: %g)",
					label, rep.ActiveShare, got.ActiveShare, ref.ActiveShare)
			}
		}
	}
}

// The aggregated trace must export as loadable Chrome trace-event JSON.
func TestTelemetryTraceExport(t *testing.T) {
	opt := baseOptions(mpi.NewCart(2, 1, 1))
	opt.Steps = 10
	opt.Telemetry = &telemetry.Options{TraceEvents: 128}
	res, err := Run(cvm.HardRock(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Telemetry.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) {
		t.Error("trace JSON missing traceEvents array")
	}
}
