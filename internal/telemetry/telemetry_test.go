package telemetry

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := 0; p < NumPhases; p++ {
		name := Phase(p).String()
		if name == "" || strings.HasPrefix(name, "phase(") {
			t.Fatalf("phase %d has no name", p)
		}
		if seen[name] {
			t.Fatalf("duplicate phase name %q", name)
		}
		seen[name] = true
	}
	if Phase(NumPhases).String() != fmt.Sprintf("phase(%d)", NumPhases) {
		t.Errorf("out-of-range String = %q", Phase(NumPhases).String())
	}
}

func TestFarmPhasesNamed(t *testing.T) {
	for p, want := range map[Phase]string{Job: "job", Serve: "serve"} {
		if got := p.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	sp := r.Span(Velocity)
	sp.End() // must not panic
	r.AddDur(Stress, time.Second)
	r.CountSent(1, 10)
	r.CountRecv(1, 10, 5)
	r.StepEnd()
	if sec, n := r.PhaseTotal(Velocity); sec != 0 || n != 0 {
		t.Errorf("nil PhaseTotal = %g, %d", sec, n)
	}
	if r.Neighbors() != nil {
		t.Error("nil Neighbors not nil")
	}
	if ev, d := r.Events(); ev != nil || d != 0 {
		t.Error("nil Events not empty")
	}
	if s := r.Snapshot(); !reflect.DeepEqual(s, Snapshot{}) {
		t.Errorf("nil Snapshot = %+v", s)
	}
}

// The disabled path must not allocate: the hot loops run these probes every
// tile of every step.
func TestNilRecorderProbesDoNotAllocate(t *testing.T) {
	var r *Recorder
	if n := testing.AllocsPerRun(100, func() {
		sp := r.Span(Velocity)
		sp.End()
		r.AddDur(Stress, time.Microsecond)
		r.CountSent(1, 8)
		r.CountRecv(1, 8, 1)
	}); n != 0 {
		t.Fatalf("nil-recorder probes allocate %.1f per run", n)
	}
}

// The enabled path must not allocate either once the neighbor entry exists
// and the ring is at capacity — telemetry-on runs must stay GC-quiet.
func TestEnabledProbesDoNotAllocate(t *testing.T) {
	r := NewRecorder(0, 4)
	r.CountSent(1, 1)
	r.CountRecv(1, 1, 1)
	for i := 0; i < 8; i++ { // fill the ring so push overwrites
		sp := r.Span(Pack)
		sp.End()
	}
	if n := testing.AllocsPerRun(100, func() {
		sp := r.Span(Velocity)
		sp.End()
		r.AddDur(Stress, time.Microsecond)
		r.CountSent(1, 8)
		r.CountRecv(1, 8, 1)
	}); n != 0 {
		t.Fatalf("enabled probes allocate %.1f per run", n)
	}
}

func TestSpanAccumulation(t *testing.T) {
	r := NewRecorder(2, 0)
	if r.rank != 2 {
		t.Fatalf("rank = %d", r.rank)
	}
	sp := r.Span(Velocity)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	sec, n := r.PhaseTotal(Velocity)
	if n != 1 || sec <= 0 {
		t.Fatalf("PhaseTotal = %g, %d", sec, n)
	}
	r.AddDur(Velocity, 10*time.Millisecond)
	sec2, n2 := r.PhaseTotal(Velocity)
	if n2 != 2 || sec2 < sec+0.0099 {
		t.Fatalf("after AddDur: %g, %d", sec2, n2)
	}
	r.AddDur(Velocity, 0)
	r.AddDur(Velocity, -time.Second)
	if _, n3 := r.PhaseTotal(Velocity); n3 != 2 {
		t.Error("non-positive AddDur counted")
	}
	// No ring: Events stays empty.
	if ev, _ := r.Events(); len(ev) != 0 {
		t.Errorf("ringless recorder has %d events", len(ev))
	}
}

func TestStepWindows(t *testing.T) {
	r := NewRecorder(0, 0)
	r.AddDur(Stress, 5*time.Millisecond)
	r.StepEnd()
	r.AddDur(Stress, 7*time.Millisecond)
	r.AddDur(Pack, 1*time.Millisecond)
	r.StepEnd()
	if len(r.steps) != 2 {
		t.Fatalf("Steps = %d", len(r.steps))
	}
	if r.steps[0][Stress] != int64(5*time.Millisecond) {
		t.Errorf("window 0 stress = %d", r.steps[0][Stress])
	}
	if r.steps[1][Stress] != int64(7*time.Millisecond) {
		t.Errorf("window 1 stress delta = %d (not a delta?)", r.steps[1][Stress])
	}
	if r.steps[1][Pack] != int64(time.Millisecond) {
		t.Errorf("window 1 pack = %d", r.steps[1][Pack])
	}
}

func TestEventRingWrap(t *testing.T) {
	r := NewRecorder(1, 4)
	for p := 0; p < 7; p++ {
		sp := r.Span(Phase(p % NumPhases))
		sp.End()
	}
	ev, dropped := r.Events()
	if len(ev) != 4 || dropped != 3 {
		t.Fatalf("Events = %d events, %d dropped", len(ev), dropped)
	}
	// Push order: the oldest retained first (phases 3,4,5,6).
	for i, e := range ev {
		if e.Phase != Phase(i+3) {
			t.Fatalf("event %d phase %v, want %v", i, e.Phase, Phase(i+3))
		}
		if e.Rank != 1 || e.Start < 0 || e.Dur < 0 {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
	}
}

func TestNeighborCounters(t *testing.T) {
	r := NewRecorder(0, 0)
	r.CountSent(3, 100)
	r.CountSent(1, 50)
	r.CountSent(3, 100)
	r.CountRecv(3, 80, 2000)
	r.CountRecv(3, 80, 4000)
	r.CountRecv(1, 10, 0) // no stamp: not counted in latency
	nbrs := r.Neighbors()
	if len(nbrs) != 2 || nbrs[0].Peer != 1 || nbrs[1].Peer != 3 {
		t.Fatalf("Neighbors = %+v", nbrs)
	}
	n3 := nbrs[1]
	if n3.SentMsgs != 2 || n3.SentFloats != 200 || n3.RecvMsgs != 2 || n3.RecvFloats != 160 {
		t.Errorf("peer 3 counters: %+v", n3)
	}
	if n3.LatencyN != 2 || n3.LatencySumNs != 6000 || n3.LatencyMaxNs != 4000 {
		t.Errorf("peer 3 latency: %+v", n3)
	}
	if nbrs[0].LatencyN != 0 {
		t.Errorf("unstamped receive counted toward latency: %+v", nbrs[0])
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRecorder(3, 8)
	r.AddDur(Velocity, 5*time.Millisecond)
	r.AddDur(Stress, 3*time.Millisecond)
	r.StepEnd()
	r.AddDur(Velocity, 2*time.Millisecond)
	r.StepEnd()
	r.CountSent(1, 100)
	r.CountRecv(1, 50, 1000)
	r.CountRecv(2, 10, 0)
	for i := 0; i < 3; i++ {
		sp := r.Span(Pack)
		sp.End()
	}

	// The snapshot crosses the runtime as a gob-encoded value.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, r.Snapshot()) {
		t.Errorf("round trip changed the snapshot:\n%+v\n%+v", s, r.Snapshot())
	}
	if s.Rank != 3 {
		t.Errorf("rank = %d", s.Rank)
	}
	if len(s.Steps) != 2 ||
		s.Steps[0][Velocity] != int64(5*time.Millisecond) ||
		s.Steps[0][Stress] != int64(3*time.Millisecond) ||
		s.Steps[1][Velocity] != int64(2*time.Millisecond) {
		t.Errorf("steps = %+v", s.Steps)
	}
	if s.Counts[Velocity] != 2 || s.Counts[Pack] != 3 {
		t.Errorf("counts = %+v", s.Counts)
	}
	if len(s.Neighbors) != 2 ||
		s.Neighbors[0] != (Neighbor{Peer: 1, SentMsgs: 1, SentFloats: 100,
			RecvMsgs: 1, RecvFloats: 50, LatencySumNs: 1000, LatencyMaxNs: 1000, LatencyN: 1}) ||
		s.Neighbors[1] != (Neighbor{Peer: 2, RecvMsgs: 1, RecvFloats: 10}) {
		t.Errorf("neighbors = %+v", s.Neighbors)
	}
	if len(s.Events) != 3 || s.Dropped != 0 {
		t.Errorf("events = %d, dropped %d", len(s.Events), s.Dropped)
	}
	for _, e := range s.Events {
		if e.Rank != 3 || e.Phase != Pack {
			t.Errorf("event %+v", e)
		}
	}
}

// TestBuildReportRejectsCorruptPhase: an event naming a phase that does
// not exist is an error, not an index out of range.
func TestBuildReportRejectsCorruptPhase(t *testing.T) {
	good := NewRecorder(0, 4)
	good.Span(Velocity).End()
	bad := Snapshot{Rank: 1, Events: []Event{{Rank: 1, Phase: Phase(NumPhases), Start: 1, Dur: 1}}}
	if _, err := BuildReport([]Snapshot{good.Snapshot(), bad}); err == nil {
		t.Error("corrupt event phase accepted")
	}
	if _, err := BuildReport([]Snapshot{good.Snapshot()}); err != nil {
		t.Error(err)
	}
}

func TestBuildReportAggregation(t *testing.T) {
	mk := func(rank int, stepsMs ...int) Snapshot {
		r := NewRecorder(rank, 0)
		for _, ms := range stepsMs {
			r.AddDur(Velocity, time.Duration(ms)*time.Millisecond)
			r.StepEnd()
		}
		return r.Snapshot()
	}
	rep, err := BuildReport([]Snapshot{
		mk(0, 10, 20, 30, 40),
		mk(1, 20, 20, 20, 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 2 || rep.StepWindows != 4 {
		t.Fatalf("ranks %d windows %d", rep.Ranks, rep.StepWindows)
	}
	v := rep.Stat(Velocity)
	tol := 1e-9
	if v.Spans != 8 {
		t.Errorf("spans = %d", v.Spans)
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"total", v.TotalSec, 0.18},
		{"maxRank", v.MaxRankSec, 0.10},
		{"mean", v.MeanSec, 0.0225},
		{"min", v.MinSec, 0.01},
		{"max", v.MaxSec, 0.04},
		{"p99", v.P99Sec, 0.04},
	}
	for _, c := range checks {
		if c.got < c.want-tol || c.got > c.want+tol {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
	if got := rep.MeanStepSec(Velocity, Stress); got < 0.0225-tol || got > 0.0225+tol {
		t.Errorf("MeanStepSec = %g", got)
	}
	// Untouched phase: zero stats but a valid name.
	if s := rep.Stat(Checkpoint); s.Spans != 0 || s.Phase != "checkpoint" {
		t.Errorf("idle phase stat = %+v", s)
	}
	// Nil/out-of-range access is safe.
	var nilRep *Report
	if s := nilRep.Stat(Velocity); s.Phase != "velocity" || s.Spans != 0 {
		t.Errorf("nil report stat = %+v", s)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	if q := quantile(nil, 0.99); q != 0 {
		t.Errorf("empty quantile = %g", q)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.99, 10}, {0.1, 1}, {1.0, 10}, {0.0, 1},
	} {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	ra := NewRecorder(0, 8)
	rb := NewRecorder(1, 8)
	for _, r := range []*Recorder{ra, rb} {
		sp := r.Span(Velocity)
		time.Sleep(time.Millisecond)
		sp.End()
		sp = r.Span(Recv)
		sp.End()
	}
	rep, err := BuildReport([]Snapshot{ra.Snapshot(), rb.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var complete, meta int
	sawVelocity := false
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Name == "velocity" && e.Pid == 0 {
				sawVelocity = true
				if e.Tid != int(Velocity) || e.Dur <= 0 {
					t.Errorf("velocity event malformed: %+v", e)
				}
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected ph %q", e.Ph)
		}
	}
	if complete != 4 {
		t.Errorf("complete events = %d, want 4", complete)
	}
	// Per rank: one process_name plus NumPhases thread_name records.
	if meta != 2*(1+NumPhases) {
		t.Errorf("metadata events = %d, want %d", meta, 2*(1+NumPhases))
	}
	if !sawVelocity {
		t.Error("rank 0 velocity event missing")
	}
}

func TestNowIsMonotonic(t *testing.T) {
	a := Now()
	time.Sleep(time.Millisecond)
	b := Now()
	if b <= a {
		t.Errorf("Now not increasing: %d then %d", a, b)
	}
}
