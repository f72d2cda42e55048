package solver

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core/rupture"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// rankReport is everything one rank reports to rank 0 at the end of a run;
// it crosses the runtime as one value (mpi.GatherValue). Field values keep
// the float32 precision they had on the wire before, so the assembled
// Result does not depend on the rank count.
type rankReport struct {
	Seismograms map[int][][3]float32 // by receiver index
	PGV         *pgvBlock            // nil without TrackPGV
	Fault       *faultBlock          // nil on ranks that own no fault nodes
	Slip        []slipSeries
	Telemetry   *telemetry.Snapshot // nil with telemetry off
	Swept       int64               // cells the sweeps covered (Result.ActiveShare)
	Owned       int64               // cells whole sweeps would have covered
}

// pgvBlock is a rank's NX×NY surface block of the three PGV maps at (X, Y).
type pgvBlock struct {
	X, Y, NX, NY int
	H, PX, PY    []float32
}

// faultBlock is a rank's [K0,K1)×[I0,I1) part of the fault window, with the
// local Vs for the supershear classification.
type faultBlock struct {
	I0, I1, K0, K1              int
	Slip, PeakRate, RupTime, Vs []float32
}

type slipSeries struct {
	I, K   int
	Series []float32
}

func float32s(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// sqrt32s is the horizontal peak map: the square root of each cell's largest
// vx²+vy², rounded to float32 once.
func sqrt32s(h2 []float64) []float32 {
	out := make([]float32, len(h2))
	for i, x := range h2 {
		out[i] = float32(math.Sqrt(x))
	}
	return out
}

// report assembles this rank's rankReport.
func (s *Stepper) report() rankReport {
	rep := rankReport{Seismograms: map[int][][3]float32{}}
	rep.Swept, rep.Owned = s.swept, s.steps*2*int64(s.sub.Local.Cells())
	for _, r := range s.receivers {
		rep.Seismograms[r.idx] = slices.Clone(r.series)
	}
	if s.pgvh != nil {
		rep.PGV = &pgvBlock{
			X: s.sub.OffX, Y: s.sub.OffY, NX: s.sub.Local.NX, NY: s.sub.Local.NY,
			H: sqrt32s(s.pgvh), PX: slices.Clone(s.pgvx), PY: slices.Clone(s.pgvy),
		}
	}
	if s.fault != nil {
		f := s.opt.Fault
		b := &faultBlock{
			I0: max(f.I0, s.sub.OffX), I1: min(f.I1, s.sub.OffX+s.sub.Local.NX),
			K0: max(f.K0, s.sub.OffZ), K1: min(f.K1, s.sub.OffZ+s.sub.Local.NZ),
			Slip: float32s(s.fault.Slip), PeakRate: float32s(s.fault.PeakRate), RupTime: float32s(s.fault.RupTime),
		}
		j0 := f.J0 - s.sub.OffY
		for k := b.K0; k < b.K1; k++ {
			for i := b.I0; i < b.I1; i++ {
				li, lk := i-s.sub.OffX, k-s.sub.OffZ
				mu := float64(s.med.Mu.At(li, j0, lk))
				rho := float64(s.med.Rho.At(li, j0, lk))
				b.Vs = append(b.Vs, float32(math.Sqrt(mu/rho)))
			}
		}
		rep.Fault = b
	}
	if s.recorder != nil && s.opt.Fault.RecordEvery > 0 {
		for n, series := range s.recorder.Series {
			if len(series) == 0 {
				continue
			}
			gi, _, gk := s.recorder.NodeGlobal(n)
			rep.Slip = append(rep.Slip, slipSeries{I: gi + s.sub.OffX, K: gk + s.sub.OffZ, Series: slices.Clone(series)})
		}
	}
	if s.tel != nil {
		snap := s.tel.Snapshot()
		rep.Telemetry = &snap
	}
	return rep
}

// collect gathers all per-rank outputs at rank 0 and assembles the Result.
func (s *Stepper) collect() (*Result, error) {
	c, opt := s.comm, s.opt
	// Moment rate: sum across ranks per step, in the tree's fixed order; ranks
	// without fault nodes contribute zeros.
	var momentRate []float64
	if opt.Fault != nil {
		momentRate = c.Reduce(s.momentRate, mpi.Sum, 0)
	}

	// Seismograms, PGV maps, fault arrays, slip-rate histories, swept cells
	// and the telemetry snapshot (step samples, neighbor counters, event
	// trace — the way the paper aggregates Jaguar timings) travel as one
	// value.
	reports, err := mpi.GatherValue(c, s.report(), 0)
	if c.Rank() != 0 {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("solver: collect: %w", err)
	}

	res := &Result{Steps: opt.Steps, Dt: s.dt}
	var swept, owned int64
	for _, r := range reports {
		swept, owned = swept+r.Swept, owned+r.Owned
	}
	if owned > 0 {
		res.ActiveShare = float64(swept) / float64(owned)
	}

	if s.tel != nil {
		snaps := make([]telemetry.Snapshot, 0, len(reports))
		for _, r := range reports {
			if r.Telemetry != nil {
				snaps = append(snaps, *r.Telemetry)
			}
		}
		rep, err := telemetry.BuildReport(snaps)
		if err != nil {
			return nil, fmt.Errorf("solver: telemetry aggregation: %w", err)
		}
		res.Telemetry = rep
	}

	res.Seismograms = make([][][3]float32, len(opt.Receivers))
	for _, r := range reports {
		for idx, ser := range r.Seismograms {
			res.Seismograms[idx] = ser
		}
	}

	if opt.TrackPGV {
		nx, ny := opt.Global.NX, opt.Global.NY
		res.PGVH = make([]float64, nx*ny)
		res.PGVX = make([]float64, nx*ny)
		res.PGVY = make([]float64, nx*ny)
		for _, r := range reports {
			b := r.PGV
			if b == nil {
				continue
			}
			for m, src := range [][]float32{b.H, b.PX, b.PY} {
				dst := [][]float64{res.PGVH, res.PGVX, res.PGVY}[m]
				for j := 0; j < b.NY; j++ {
					for i := 0; i < b.NX; i++ {
						dst[(b.Y+j)*nx+(b.X+i)] = float64(src[j*b.NX+i])
					}
				}
			}
		}
	}

	if opt.Fault != nil {
		f := opt.Fault
		ni, nk := f.I1-f.I0, f.K1-f.K0
		res.FaultSlip = alloc2(nk, ni)
		res.FaultPeakRate = alloc2(nk, ni)
		res.FaultRupTime = alloc2(nk, ni, -1)
		vsMap := alloc2(nk, ni)
		for _, r := range reports {
			b := r.Fault
			if b == nil {
				continue
			}
			lni := b.I1 - b.I0
			for m, src := range [][]float32{b.Slip, b.PeakRate, b.RupTime, b.Vs} {
				dst := [][][]float64{res.FaultSlip, res.FaultPeakRate, res.FaultRupTime, vsMap}[m]
				for k := b.K0; k < b.K1; k++ {
					for i := b.I0; i < b.I1; i++ {
						dst[k-f.K0][i-f.I0] = float64(src[(k-b.K0)*lni+(i-b.I0)])
					}
				}
			}
		}
		res.MomentRate = momentRate
		res.FaultStats = rupture.Summarize(res.FaultSlip, res.FaultPeakRate, res.FaultRupTime, vsMap, opt.H)

		if f.RecordEvery > 0 {
			for _, r := range reports {
				for _, sl := range r.Slip {
					res.SlipNodes = append(res.SlipNodes, [3]int{sl.I, f.J0, sl.K})
					res.SlipSeries = append(res.SlipSeries, sl.Series)
				}
			}
			res.SlipDt = s.dt * float64(f.RecordEvery)
		}
	}

	return res, nil
}

func alloc2(nk, ni int, fill ...float64) [][]float64 {
	v := 0.0
	if len(fill) > 0 {
		v = fill[0]
	}
	out := make([][]float64, nk)
	for k := range out {
		out[k] = make([]float64, ni)
		if v != 0 {
			for i := range out[k] {
				out[k][i] = v
			}
		}
	}
	return out
}
