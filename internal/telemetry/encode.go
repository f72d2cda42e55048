// Snapshot encoding: the in-process MPI runtime moves []float32, so a
// recorder serializes to float32 pairs for the rank-0 gather. Each wide
// value (int64 nanoseconds, counts) is stored as a hi/lo float32 pair —
// hi = float32(v), lo = float32(v - hi) — recovering ~48 bits, the same
// technique the runtime's collectives use for float64 payloads. At the
// scales involved (ns within one run, message counts) the round trip is
// exact for all practical purposes.

package telemetry

import "fmt"

func appendWide(dst []float32, v float64) []float32 {
	hi := float32(v)
	lo := float32(v - float64(hi))
	return append(dst, hi, lo)
}

type wideReader struct {
	buf []float32
	pos int
	err error
}

func (r *wideReader) next() float64 {
	if r.err != nil {
		return 0
	}
	if r.pos+2 > len(r.buf) {
		r.err = fmt.Errorf("telemetry: snapshot truncated at %d/%d", r.pos, len(r.buf))
		return 0
	}
	v := float64(r.buf[r.pos]) + float64(r.buf[r.pos+1])
	r.pos += 2
	return v
}

func (r *wideReader) nextInt() int64 { return int64(r.next()) }

// Snapshot is one rank's decoded telemetry, the unit of cross-rank
// aggregation.
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
	// SweptCells and OwnedCells are the rank's SetSweptCells pair.
	SweptCells, OwnedCells int64
}

// EncodeSnapshot serializes the recorder — rank, step samples, span
// counts, neighbor counters, and the event trace — as a []float32 payload
// for Comm.Gather to rank 0.
func (r *Recorder) EncodeSnapshot() []float32 {
	if r == nil {
		return nil
	}
	events, dropped := r.Events()
	nbrs := r.Neighbors()

	out := make([]float32, 0, 2*(7+NumPhases*(len(r.steps)+1)+8*len(nbrs)+3*len(events)))
	out = appendWide(out, float64(r.rank))
	out = appendWide(out, float64(len(r.steps)))
	out = appendWide(out, float64(len(nbrs)))
	out = appendWide(out, float64(len(events)))
	out = appendWide(out, float64(dropped))
	out = appendWide(out, float64(r.swept))
	out = appendWide(out, float64(r.owned))
	for _, row := range r.steps {
		for p := 0; p < NumPhases; p++ {
			out = appendWide(out, float64(row[p]))
		}
	}
	for p := 0; p < NumPhases; p++ {
		out = appendWide(out, float64(r.acc[p].n.Load()))
	}
	for _, nb := range nbrs {
		out = appendWide(out, float64(nb.Peer))
		out = appendWide(out, float64(nb.SentMsgs))
		out = appendWide(out, float64(nb.SentFloats))
		out = appendWide(out, float64(nb.RecvMsgs))
		out = appendWide(out, float64(nb.RecvFloats))
		out = appendWide(out, float64(nb.LatencySumNs))
		out = appendWide(out, float64(nb.LatencyMaxNs))
		out = appendWide(out, float64(nb.LatencyN))
	}
	for _, e := range events {
		out = appendWide(out, float64(e.Phase))
		out = appendWide(out, float64(e.Start))
		out = appendWide(out, float64(e.Dur))
	}
	return out
}

// DecodeSnapshot parses one rank's payload back into a Snapshot.
func DecodeSnapshot(payload []float32) (*Snapshot, error) {
	rd := &wideReader{buf: payload}
	s := &Snapshot{}
	s.Rank = int(rd.nextInt())
	nSteps := int(rd.nextInt())
	nNbrs := int(rd.nextInt())
	nEvents := int(rd.nextInt())
	s.Dropped = uint64(rd.nextInt())
	s.SweptCells, s.OwnedCells = rd.nextInt(), rd.nextInt()
	if rd.err != nil {
		return nil, rd.err
	}
	if nSteps < 0 || nNbrs < 0 || nEvents < 0 ||
		2*(nSteps*NumPhases+8*nNbrs+3*nEvents) > len(payload) {
		return nil, fmt.Errorf("telemetry: corrupt snapshot header (%d steps, %d neighbors, %d events in %d floats)",
			nSteps, nNbrs, nEvents, len(payload))
	}
	s.Steps = make([][NumPhases]int64, nSteps)
	for i := range s.Steps {
		for p := 0; p < NumPhases; p++ {
			s.Steps[i][p] = rd.nextInt()
		}
	}
	for p := 0; p < NumPhases; p++ {
		s.Counts[p] = rd.nextInt()
	}
	s.Neighbors = make([]Neighbor, nNbrs)
	for i := range s.Neighbors {
		nb := &s.Neighbors[i]
		nb.Peer = int(rd.nextInt())
		nb.SentMsgs = rd.nextInt()
		nb.SentFloats = rd.nextInt()
		nb.RecvMsgs = rd.nextInt()
		nb.RecvFloats = rd.nextInt()
		nb.LatencySumNs = rd.nextInt()
		nb.LatencyMaxNs = rd.nextInt()
		nb.LatencyN = rd.nextInt()
	}
	s.Events = make([]Event, nEvents)
	for i := range s.Events {
		ph := rd.nextInt()
		if ph < 0 || ph >= int64(NumPhases) {
			return nil, fmt.Errorf("telemetry: corrupt event phase %d", ph)
		}
		s.Events[i] = Event{
			Rank:  s.Rank,
			Phase: Phase(ph),
			Start: rd.nextInt(),
			Dur:   rd.nextInt(),
		}
	}
	if rd.err != nil {
		return nil, rd.err
	}
	return s, nil
}
