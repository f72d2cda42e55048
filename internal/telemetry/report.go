// Cross-rank aggregation and Chrome trace export. BuildReport consumes
// the per-rank snapshots gathered over the in-process MPI runtime — the
// way the paper aggregates Jaguar timings at rank 0 — and
// reduces them to per-phase distribution statistics over (rank, step)
// sample windows plus a merged, time-ordered event trace.

package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// PhaseStats aggregates one phase across all ranks and step windows.
// Mean/Min/Max/P99 are over the per-(rank, step) samples, in seconds per
// step; TotalSec sums every rank's accumulator; MaxRankSec is the slowest
// single rank's total — the pacing term of the paper's Eq. 7, where the
// step time is set by the worst rank.
type PhaseStats struct {
	Phase      string  `json:"phase"`
	Spans      int64   `json:"spans"`
	TotalSec   float64 `json:"total_sec"`
	MaxRankSec float64 `json:"max_rank_sec"`
	MeanSec    float64 `json:"mean_sec_per_step"`
	MinSec     float64 `json:"min_sec_per_step"`
	MaxSec     float64 `json:"max_sec_per_step"`
	P99Sec     float64 `json:"p99_sec_per_step"`
}

// NeighborStats is one (rank, peer) edge of the message graph.
type NeighborStats struct {
	Rank           int     `json:"rank"`
	Peer           int     `json:"peer"`
	SentMsgs       int64   `json:"sent_msgs"`
	SentFloats     int64   `json:"sent_floats"`
	RecvMsgs       int64   `json:"recv_msgs"`
	RecvFloats     int64   `json:"recv_floats"`
	MeanLatencySec float64 `json:"mean_latency_sec"`
	MaxLatencySec  float64 `json:"max_latency_sec"`
}

// Report is the aggregated telemetry of one run.
type Report struct {
	Ranks         int             `json:"ranks"`
	StepWindows   int             `json:"step_windows"`
	Phases        []PhaseStats    `json:"phases"` // indexed by Phase
	Neighbors     []NeighborStats `json:"neighbors,omitempty"`
	Events        []Event         `json:"-"` // merged trace, time-ordered
	DroppedEvents uint64          `json:"dropped_events,omitempty"`
}

// Snapshot is one rank's telemetry, the unit of cross-rank aggregation: it
// crosses to rank 0 as a value (mpi.GatherValue).
type Snapshot struct {
	Rank int
	// Steps holds per-step phase nanoseconds, one row per step window.
	Steps [][NumPhases]int64
	// Counts holds the per-phase span counts over the whole run.
	Counts [NumPhases]int64
	// Neighbors holds the per-peer message counters.
	Neighbors []Neighbor
	// Events is the (possibly truncated) event trace; Dropped counts ring
	// overwrites.
	Events  []Event
	Dropped uint64
}

// Snapshot copies the recorder's rank, step samples, span counts,
// neighbor counters and event trace (the zero Snapshot on a nil recorder).
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Rank:      r.rank,
		Steps:     append([][NumPhases]int64(nil), r.steps...),
		Neighbors: r.Neighbors(),
	}
	for p := range s.Counts {
		s.Counts[p] = r.acc[p].n.Load()
	}
	s.Events, s.Dropped = r.Events()
	return s
}

// BuildReport aggregates the gathered per-rank snapshots. A snapshot whose
// events name a phase that does not exist is an error.
func BuildReport(snaps []Snapshot) (*Report, error) {
	for _, s := range snaps {
		for _, e := range s.Events {
			if int(e.Phase) >= NumPhases {
				return nil, fmt.Errorf("telemetry: rank %d: corrupt event phase %d", s.Rank, e.Phase)
			}
		}
	}
	rep := &Report{Ranks: len(snaps), Phases: make([]PhaseStats, NumPhases)}
	samples := make([][]float64, NumPhases)
	for _, s := range snaps {
		if len(s.Steps) > rep.StepWindows {
			rep.StepWindows = len(s.Steps)
		}
		rankTotal := make([]float64, NumPhases)
		for _, row := range s.Steps {
			for p := 0; p < NumPhases; p++ {
				sec := float64(row[p]) / 1e9
				samples[p] = append(samples[p], sec)
				rankTotal[p] += sec
			}
		}
		for p := 0; p < NumPhases; p++ {
			ps := &rep.Phases[p]
			ps.Spans += s.Counts[p]
			ps.TotalSec += rankTotal[p]
			if rankTotal[p] > ps.MaxRankSec {
				ps.MaxRankSec = rankTotal[p]
			}
		}
		for _, nb := range s.Neighbors {
			ns := NeighborStats{
				Rank: s.Rank, Peer: nb.Peer,
				SentMsgs: nb.SentMsgs, SentFloats: nb.SentFloats,
				RecvMsgs: nb.RecvMsgs, RecvFloats: nb.RecvFloats,
				MaxLatencySec: float64(nb.LatencyMaxNs) / 1e9,
			}
			if nb.LatencyN > 0 {
				ns.MeanLatencySec = float64(nb.LatencySumNs) / float64(nb.LatencyN) / 1e9
			}
			rep.Neighbors = append(rep.Neighbors, ns)
		}
		rep.Events = append(rep.Events, s.Events...)
		rep.DroppedEvents += s.Dropped
	}
	for p := 0; p < NumPhases; p++ {
		ps := &rep.Phases[p]
		ps.Phase = Phase(p).String()
		sv := samples[p]
		if len(sv) == 0 {
			continue
		}
		sort.Float64s(sv)
		ps.MinSec = sv[0]
		ps.MaxSec = sv[len(sv)-1]
		ps.P99Sec = quantile(sv, 0.99)
		sum := 0.0
		for _, v := range sv {
			sum += v
		}
		ps.MeanSec = sum / float64(len(sv))
	}
	sort.Slice(rep.Neighbors, func(i, j int) bool {
		a, b := rep.Neighbors[i], rep.Neighbors[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Peer < b.Peer
	})
	sort.Slice(rep.Events, func(i, j int) bool {
		return rep.Events[i].Start < rep.Events[j].Start
	})
	return rep, nil
}

// quantile returns the q-th quantile of an ascending-sorted sample using
// the nearest-rank method (ceil(q*n)).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Stat returns the aggregated stats of phase p.
func (r *Report) Stat(p Phase) PhaseStats {
	if r == nil || int(p) >= len(r.Phases) {
		return PhaseStats{Phase: p.String()}
	}
	return r.Phases[p]
}

// MeanStepSec sums the per-step means of the given phases — the measured
// per-rank cost of that phase group per solver step.
func (r *Report) MeanStepSec(phases ...Phase) float64 {
	sum := 0.0
	for _, p := range phases {
		sum += r.Stat(p).MeanSec
	}
	return sum
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (ph "X" = complete event, ph "M" = metadata; ts/dur in microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the merged event trace in Chrome trace-event
// JSON (load in chrome://tracing or Perfetto). Each rank is one process;
// each phase gets its own thread track so nested spans of different phases
// stay readable.
func (r *Report) WriteChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, 0, 2*NumPhases+len(r.Events))
	seen := map[int]bool{}
	for _, e := range r.Events {
		if !seen[e.Rank] {
			seen[e.Rank] = true
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: e.Rank,
				Args: map[string]any{"name": "rank " + strconv.Itoa(e.Rank)},
			})
			for p := 0; p < NumPhases; p++ {
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: e.Rank, Tid: p,
					Args: map[string]any{"name": Phase(p).String()},
				})
			}
		}
		events = append(events, chromeEvent{
			Name: e.Phase.String(), Cat: "phase", Ph: "X",
			Ts:  float64(e.Start) / 1e3,
			Dur: float64(e.Dur) / 1e3,
			Pid: e.Rank, Tid: int(e.Phase),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
