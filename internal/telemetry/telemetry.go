// Package telemetry is the per-rank instrumentation subsystem: monotonic
// span timers and counters keyed by solver phase, a ring-buffered event
// trace exportable as Chrome trace-event JSON, and cross-rank aggregation
// (min/max/mean/p99 per phase per step window) assembled from snapshots
// gathered over the in-process MPI runtime — the measured side of the
// paper's Eq. 7 decomposition (Tstep = Tcomp + Tcomm + Tsync + γTout),
// which until now the repo validated only through end-to-end timings.
//
// The disabled path is a nil *Recorder: every probe method has a nil
// receiver check and returns immediately without reading the clock or
// allocating, so instrumented hot loops cost one predictable branch when
// telemetry is off. When enabled, span totals go to per-phase atomic
// accumulators (safe for concurrent Ends from several goroutines),
// trace events to a fixed-capacity mutex-guarded ring that overwrites the
// oldest events when full, and message counters to a per-peer table.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one instrumented activity of a solver step.
type Phase uint8

const (
	// Velocity is the velocity-update kernel (boundary strips and
	// interior under the overlap model).
	Velocity Phase = iota
	// Stress is the stress-update kernel. With attenuation on, the solver's
	// default path updates the memory variables in the same sweep
	// (attenuation.FusedStress), so their time is in here too.
	Stress
	// Attenuation is the coarse-grained memory-variable update where it is a
	// pass of its own: dynamic-rupture runs (it follows the fault's stress
	// correction) and the Naive kernel ablation. On the default path it
	// reads zero — the work is timed under Stress.
	Attenuation
	// Boundary covers absorbing-boundary and free-surface work (PML
	// zones, sponge taper, FS2 images).
	Boundary
	// Pack is halo-face packing into message buffers.
	Pack
	// Send is message submission to the runtime.
	Send
	// Recv is blocking receive / wait-for-completion time, including the
	// skew spent waiting on a neighbor that is still computing (the
	// MPI_Waitall term of the paper's Tcomm).
	Recv
	// Unpack is ghost-region unpacking from received buffers.
	Unpack
	// Sync is explicit barrier time (the synchronous model's Tsync).
	Sync
	// Output is per-step observable extraction (receivers, PGV folding).
	Output
	// IO is indexed file-view read/write time (internal/mpiio).
	IO
	// Checkpoint is checkpoint save/restore serialization time.
	Checkpoint
	// Recovery is coordinated rollback time after an injected or real
	// fault: electing the restart step, reloading the checkpoint, and
	// resetting the runtime (internal/ft).
	Recovery
	// Collective is time inside mpi tree collectives (Bcast, Reduce,
	// Allreduce): the dt/vp-max reductions of solver setup and the
	// timing/moment-rate reductions of result collection, which were
	// previously invisible to the phase split. Barriers are not counted
	// here — the solver wraps them in Sync spans.
	Collective
	// Agg is the two-phase aggregated I/O layer (internal/agg): shipping
	// file-view segments to the writer ranks, coalescing them into
	// stripe-aligned extents, and issuing the aggregated writes.
	Agg
	// Job is one ensemble-farm worker attempt at a scenario: the solver
	// run plus artifact encode/store, excluding queue wait and retry
	// backoff (internal/farm).
	Job
	// Serve is hazard-service front-end query handling time: admission,
	// store lookup with checksum verification, and surrogate evaluation
	// (internal/farm server).
	Serve

	numPhases
)

// NumPhases is the number of defined phases.
const NumPhases = int(numPhases)

var phaseNames = [NumPhases]string{
	"velocity", "stress", "attenuation", "boundary", "pack", "send",
	"recv", "unpack", "sync", "output", "io", "checkpoint",
	"recovery", "collective", "agg",
	"job", "serve",
}

func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// epoch anchors every timestamp. All ranks of the in-process runtime
// share it, so traces and message latencies line up across ranks without
// clock synchronization.
var epoch = time.Now()

// Now returns monotonic nanoseconds since the process-wide telemetry
// epoch (the message-latency clock).
func Now() int64 { return int64(time.Since(epoch)) }

// Options enables telemetry on a run.
type Options struct {
	// TraceEvents is the per-rank event-ring capacity; when the ring
	// fills, the oldest events are overwritten (and counted as dropped).
	// 0 keeps span accumulators, step samples and message counters
	// without an event trace.
	TraceEvents int
}

// Event is one completed span in a rank's trace.
type Event struct {
	Rank  int
	Phase Phase
	Start int64 // ns since the telemetry epoch
	Dur   int64 // ns
}

// Neighbor accumulates one peer's message traffic as seen by one rank.
type Neighbor struct {
	Peer       int
	SentMsgs   int64
	SentFloats int64
	RecvMsgs   int64
	RecvFloats int64
	// Latency is measured from the sender's submission to the receiver's
	// match (so it includes time the receiver spent not yet asking), over
	// the RecvMsgs that carried a send stamp.
	LatencySumNs int64
	LatencyMaxNs int64
	LatencyN     int64
}

type phaseAccum struct {
	ns atomic.Int64
	n  atomic.Int64
}

// Recorder is one rank's telemetry sink. All probe methods are safe on a
// nil receiver (the disabled path) and safe for concurrent use from
// several goroutines. StepEnd and the snapshot methods must be
// called from the rank's main goroutine.
type Recorder struct {
	rank int
	acc  [NumPhases]phaseAccum

	// Per-step sample windows, owner goroutine only.
	prev  [NumPhases]int64
	steps [][NumPhases]int64

	// Event ring. ringCap is immutable after NewRecorder so the enabled
	// check in Span.End stays lock-free; ring/pushed are guarded by ringMu.
	ringCap int
	ringMu  sync.Mutex
	ring    []Event
	pushed  uint64

	// Per-neighbor message counters.
	nbrMu sync.Mutex
	nbr   map[int]*Neighbor

	// Named counters (queue depth high-water, retries, breaker trips,
	// shed queries, ...). Process-local: they are NOT part of the gathered
	// snapshot encoding — the ensemble farm that uses them runs its
	// supervisor in one process.
	cntMu sync.Mutex
	cnt   map[string]int64

	// Cells the rank's kernel sweeps covered and the cells whole sweeps
	// would have (SetSweptCells); owner goroutine only.
	swept, owned int64
}

// NewRecorder creates a recorder for the given rank. traceEvents sets the
// event-ring capacity; 0 disables event tracing (accumulators, samples
// and counters stay active).
func NewRecorder(rank, traceEvents int) *Recorder {
	r := &Recorder{rank: rank, nbr: map[int]*Neighbor{}}
	if traceEvents > 0 {
		r.ringCap = traceEvents
		r.ring = make([]Event, 0, traceEvents)
	}
	return r
}

// Span is an open interval started by Recorder.Span. The zero Span (from
// a nil recorder) is a no-op.
type Span struct {
	r     *Recorder
	phase Phase
	t0    time.Time
}

// Span starts a span of phase p. On a nil recorder it returns the no-op
// zero Span without reading the clock.
func (r *Recorder) Span(p Phase) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, phase: p, t0: time.Now()}
}

// End closes the span, folding its duration into the phase accumulator
// and, when tracing is enabled, appending one event to the ring. Safe to
// call concurrently with other Ends.
func (s Span) End() {
	if s.r == nil {
		return
	}
	d := int64(time.Since(s.t0))
	a := &s.r.acc[s.phase]
	a.ns.Add(d)
	a.n.Add(1)
	if s.r.ringCap > 0 {
		s.r.push(Event{Rank: s.r.rank, Phase: s.phase, Start: int64(s.t0.Sub(epoch)), Dur: d})
	}
}

func (r *Recorder) push(e Event) {
	r.ringMu.Lock()
	if c := r.ringCap; c > 0 {
		if len(r.ring) < c {
			r.ring = append(r.ring, e)
		} else {
			r.ring[r.pushed%uint64(c)] = e
		}
		r.pushed++
	}
	r.ringMu.Unlock()
}

// AddDur folds an externally measured duration into a phase accumulator
// without emitting a trace event — the mpi collectives' time, which they
// measure themselves.
func (r *Recorder) AddDur(p Phase, d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.acc[p].ns.Add(int64(d))
	r.acc[p].n.Add(1)
}

// PhaseTotal returns the accumulated seconds and span count of phase p.
func (r *Recorder) PhaseTotal(p Phase) (sec float64, count int64) {
	if r == nil {
		return 0, 0
	}
	return float64(r.acc[p].ns.Load()) / 1e9, r.acc[p].n.Load()
}

// CountSent records one outgoing message of n float32 values to peer.
func (r *Recorder) CountSent(peer, n int) {
	if r == nil {
		return
	}
	r.nbrMu.Lock()
	nb := r.neighborLocked(peer)
	nb.SentMsgs++
	nb.SentFloats += int64(n)
	r.nbrMu.Unlock()
}

// CountRecv records one received message of n float32 values from peer.
// latencyNs is the send-to-match latency (<= 0: no stamp, not counted).
func (r *Recorder) CountRecv(peer, n int, latencyNs int64) {
	if r == nil {
		return
	}
	r.nbrMu.Lock()
	nb := r.neighborLocked(peer)
	nb.RecvMsgs++
	nb.RecvFloats += int64(n)
	if latencyNs > 0 {
		nb.LatencySumNs += latencyNs
		nb.LatencyN++
		if latencyNs > nb.LatencyMaxNs {
			nb.LatencyMaxNs = latencyNs
		}
	}
	r.nbrMu.Unlock()
}

func (r *Recorder) neighborLocked(peer int) *Neighbor {
	nb := r.nbr[peer]
	if nb == nil {
		nb = &Neighbor{Peer: peer}
		r.nbr[peer] = nb
	}
	return nb
}

// Neighbors returns the per-peer counters ordered by peer rank.
func (r *Recorder) Neighbors() []Neighbor {
	if r == nil {
		return nil
	}
	r.nbrMu.Lock()
	out := make([]Neighbor, 0, len(r.nbr))
	for _, nb := range r.nbr {
		out = append(out, *nb)
	}
	r.nbrMu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Peer > out[j].Peer; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// AddCount adds n to the named counter, creating it at zero on first use.
// Safe for concurrent use; a nil recorder discards the count.
func (r *Recorder) AddCount(name string, n int64) {
	if r == nil {
		return
	}
	r.cntMu.Lock()
	if r.cnt == nil {
		r.cnt = map[string]int64{}
	}
	r.cnt[name] += n
	r.cntMu.Unlock()
}

// MaxCount raises the named counter to v if v exceeds its current value —
// the high-water-mark fold used for queue depth.
func (r *Recorder) MaxCount(name string, v int64) {
	if r == nil {
		return
	}
	r.cntMu.Lock()
	if r.cnt == nil {
		r.cnt = map[string]int64{}
	}
	if v > r.cnt[name] {
		r.cnt[name] = v
	}
	r.cntMu.Unlock()
}

// Count returns the named counter's value (0 if never touched or nil
// recorder).
func (r *Recorder) Count(name string) int64 {
	if r == nil {
		return 0
	}
	r.cntMu.Lock()
	defer r.cntMu.Unlock()
	return r.cnt[name]
}

// SetSweptCells records, once at the end of a run, the cells the rank's
// velocity and stress sweeps covered and the cells whole sweeps of its
// subgrid would have — its row of Report.ActiveShare.
func (r *Recorder) SetSweptCells(swept, owned int64) {
	if r != nil {
		r.swept, r.owned = swept, owned
	}
}

// StepEnd closes one step window: the per-phase deltas since the previous
// call become one aggregation sample row. Call between solver steps from
// the rank's main goroutine; spans still open on other goroutines fold
// into whichever window observes their End.
func (r *Recorder) StepEnd() {
	if r == nil {
		return
	}
	var row [NumPhases]int64
	for p := 0; p < NumPhases; p++ {
		cur := r.acc[p].ns.Load()
		row[p] = cur - r.prev[p]
		r.prev[p] = cur
	}
	r.steps = append(r.steps, row)
}

// Events returns the ring contents in push order plus the count of events
// overwritten after the ring filled.
func (r *Recorder) Events() (events []Event, dropped uint64) {
	if r == nil {
		return nil, 0
	}
	r.ringMu.Lock()
	defer r.ringMu.Unlock()
	c := r.ringCap
	if c == 0 || r.pushed == 0 {
		return nil, 0
	}
	if r.pushed <= uint64(c) {
		return append([]Event(nil), r.ring...), 0
	}
	head := int(r.pushed % uint64(c))
	out := make([]Event, 0, c)
	out = append(out, r.ring[head:]...)
	out = append(out, r.ring[:head]...)
	return out, r.pushed - uint64(c)
}
