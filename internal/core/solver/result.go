package solver

import (
	"fmt"
	"math"

	"repro/internal/core/rupture"
	"repro/internal/decomp"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// collect gathers all per-rank outputs at rank 0 and assembles the Result.
func (rs *rankState) collect(c *mpi.Comm, dc decomp.Decomp, opt Options, dt float64,
	momentRate []float64, tm Timing) (*Result, error) {

	// Timing: max across ranks (the slowest rank sets the pace).
	tmax := c.Allreduce([]float64{tm.Comp, tm.Comm, tm.Sync, tm.Output}, mpi.Max)

	// Active share: cells swept and cells owned, summed across ranks.
	swept, owned := rs.sweptCells()
	rs.tel.SetSweptCells(swept, owned)
	cells := c.Reduce([]float64{float64(swept), float64(owned)}, mpi.Sum, 0)

	// Moment rate: sum across ranks per step.
	if opt.Fault != nil {
		if len(momentRate) < opt.Steps {
			// Ranks without fault nodes contribute zeros.
			momentRate = make([]float64, opt.Steps)
		}
		momentRate = c.Reduce(momentRate, mpi.Sum, 0)
	}

	// Seismograms: flatten owned receivers.
	var seisPayload []float32
	for _, r := range rs.receivers {
		seisPayload = append(seisPayload, float32(r.idx), float32(len(r.series)))
		for _, v := range r.series {
			seisPayload = append(seisPayload, v[0], v[1], v[2])
		}
	}
	seisAll := c.Gather(seisPayload, 0)

	// PGV maps.
	var pgvPayload []float32
	if rs.pgvh != nil {
		pgvPayload = append(pgvPayload,
			float32(rs.sub.OffX), float32(rs.sub.OffY),
			float32(rs.sub.Local.NX), float32(rs.sub.Local.NY))
		for _, arr := range [][]float64{rs.pgvh, rs.pgvx, rs.pgvy, rs.pgvz} {
			for _, v := range arr {
				pgvPayload = append(pgvPayload, float32(v))
			}
		}
	}
	pgvAll := c.Gather(pgvPayload, 0)

	// Fault arrays (slip, peak rate, rupture time, local Vs for the
	// supershear classification).
	var faultPayload []float32
	if rs.fault != nil {
		f := opt.Fault
		i0 := max(f.I0, rs.sub.OffX)
		i1 := min(f.I1, rs.sub.OffX+rs.sub.Local.NX)
		k0 := max(f.K0, rs.sub.OffZ)
		k1 := min(f.K1, rs.sub.OffZ+rs.sub.Local.NZ)
		faultPayload = append(faultPayload,
			float32(i0), float32(i1), float32(k0), float32(k1))
		for _, arr := range [][]float64{rs.fault.Slip, rs.fault.PeakRate, rs.fault.RupTime} {
			for _, v := range arr {
				faultPayload = append(faultPayload, float32(v))
			}
		}
		j0 := f.J0 - rs.sub.OffY
		for k := k0; k < k1; k++ {
			for i := i0; i < i1; i++ {
				li, lk := i-rs.sub.OffX, k-rs.sub.OffZ
				mu := float64(rs.med.Mu.At(li, j0, lk))
				rho := float64(rs.med.Rho.At(li, j0, lk))
				faultPayload = append(faultPayload, float32(math.Sqrt(mu/rho)))
			}
		}
	}
	faultAll := c.Gather(faultPayload, 0)

	// Slip-rate histories.
	var slipPayload []float32
	if rs.recorder != nil {
		for n, series := range rs.recorder.Series {
			if len(series) == 0 {
				continue
			}
			gi, _, gk := rs.recorder.NodeGlobal(n)
			gi += rs.sub.OffX
			gk += rs.sub.OffZ
			slipPayload = append(slipPayload, float32(gi), float32(gk), float32(len(series)))
			slipPayload = append(slipPayload, series...)
		}
	}
	var slipAll [][]float32
	if opt.Fault != nil && opt.Fault.RecordEvery > 0 {
		slipAll = c.Gather(slipPayload, 0)
	}

	// Telemetry: gather every rank's snapshot (step samples, neighbor
	// counters, event trace) at rank 0 — the way the paper aggregates
	// Jaguar timings — and reduce to the per-phase report.
	var telAll [][]float32
	if rs.tel != nil {
		telAll = c.Gather(rs.tel.EncodeSnapshot(), 0)
	}

	if c.Rank() != 0 {
		return nil, nil
	}

	res := &Result{
		Steps: opt.Steps,
		Dt:    dt,
		Timing: Timing{
			Comp: tmax[0], Comm: tmax[1], Sync: tmax[2], Output: tmax[3],
		},
	}
	if cells[1] > 0 {
		res.ActiveShare = cells[0] / cells[1]
	}

	if telAll != nil {
		rep, err := telemetry.BuildReport(telAll)
		if err != nil {
			return nil, fmt.Errorf("solver: telemetry aggregation: %w", err)
		}
		res.Telemetry = rep
	}

	// Decode seismograms.
	res.Seismograms = make([][][3]float32, len(opt.Receivers))
	for _, payload := range seisAll {
		p := 0
		for p < len(payload) {
			idx := int(payload[p])
			nt := int(payload[p+1])
			p += 2
			series := make([][3]float32, nt)
			for n := 0; n < nt; n++ {
				series[n] = [3]float32{payload[p], payload[p+1], payload[p+2]}
				p += 3
			}
			res.Seismograms[idx] = series
		}
	}

	// Decode PGV maps.
	if opt.TrackPGV {
		nx, ny := opt.Global.NX, opt.Global.NY
		res.PGVH = make([]float64, nx*ny)
		res.PGVX = make([]float64, nx*ny)
		res.PGVY = make([]float64, nx*ny)
		res.PGVZ = make([]float64, nx*ny)
		for _, payload := range pgvAll {
			if len(payload) == 0 {
				continue
			}
			ox, oy := int(payload[0]), int(payload[1])
			lnx, lny := int(payload[2]), int(payload[3])
			block := lnx * lny
			maps := []([]float64){res.PGVH, res.PGVX, res.PGVY, res.PGVZ}
			for mi, m := range maps {
				base := 4 + mi*block
				for j := 0; j < lny; j++ {
					for i := 0; i < lnx; i++ {
						m[(oy+j)*nx+(ox+i)] = float64(payload[base+j*lnx+i])
					}
				}
			}
		}
	}

	// Decode fault arrays.
	if opt.Fault != nil {
		f := opt.Fault
		ni, nk := f.I1-f.I0, f.K1-f.K0
		res.FaultSlip = alloc2(nk, ni)
		res.FaultPeakRate = alloc2(nk, ni)
		res.FaultRupTime = alloc2(nk, ni, -1)
		vsMap := alloc2(nk, ni)
		for _, payload := range faultAll {
			if len(payload) == 0 {
				continue
			}
			i0, i1 := int(payload[0]), int(payload[1])
			k0, k1 := int(payload[2]), int(payload[3])
			lni, lnk := i1-i0, k1-k0
			block := lni * lnk
			arrs := [][][]float64{res.FaultSlip, res.FaultPeakRate, res.FaultRupTime, vsMap}
			for ai, arr := range arrs {
				base := 4 + ai*block
				for k := 0; k < lnk; k++ {
					for i := 0; i < lni; i++ {
						arr[k0+k-f.K0][i0+i-f.I0] = float64(payload[base+k*lni+i])
					}
				}
			}
		}
		res.MomentRate = momentRate
		res.FaultStats = rupture.Summarize(res.FaultSlip, res.FaultPeakRate, res.FaultRupTime, vsMap, opt.H)

		if f.RecordEvery > 0 {
			for _, payload := range slipAll {
				p := 0
				for p < len(payload) {
					gi, gk := int(payload[p]), int(payload[p+1])
					nt := int(payload[p+2])
					p += 3
					series := make([]float32, nt)
					copy(series, payload[p:p+nt])
					p += nt
					res.SlipNodes = append(res.SlipNodes, [3]int{gi, f.J0, gk})
					res.SlipSeries = append(res.SlipSeries, series)
				}
			}
			res.SlipDt = dt * float64(f.RecordEvery)
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
