package analysis

import (
	"math"
	"sort"
)

// PGVHFromSeries returns the peak root-sum-square horizontal velocity of a
// 3-component seismogram (the Fig 21 measure).
func PGVHFromSeries(series [][3]float32) float64 {
	var m float64
	for _, v := range series {
		h := math.Hypot(float64(v[0]), float64(v[1]))
		if h > m {
			m = h
		}
	}
	return m
}

// GeomMeanFromPeaks combines per-component peak maps.
func GeomMeanFromPeaks(pgvx, pgvy float64) float64 {
	return math.Sqrt(pgvx * pgvy)
}

// DistanceBin is one row of the Fig 23 distance profile.
type DistanceBin struct {
	RMin, RMax float64 // km
	Count      int
	Median     float64
	P16, P84   float64 // 16th/84th percentiles
}

// Site is one surface sample for binning.
type Site struct {
	DistKM float64 // distance to the fault trace, km
	PGV    float64 // cm/s (or any consistent unit)
	Rock   bool
}

// BinByDistance groups rock sites into distance bins and returns the
// median and 16/84 percentile PGV per bin — the M8 side of Fig 23.
func BinByDistance(sites []Site, edges []float64) []DistanceBin {
	bins := make([]DistanceBin, len(edges)-1)
	values := make([][]float64, len(bins))
	for i := range bins {
		bins[i].RMin, bins[i].RMax = edges[i], edges[i+1]
	}
	for _, s := range sites {
		if !s.Rock || s.PGV <= 0 {
			continue
		}
		for i := range bins {
			if s.DistKM >= bins[i].RMin && s.DistKM < bins[i].RMax {
				values[i] = append(values[i], s.PGV)
				break
			}
		}
	}
	for i := range bins {
		v := values[i]
		if len(v) == 0 {
			continue
		}
		sort.Float64s(v)
		bins[i].Count = len(v)
		bins[i].Median = quantile(v, 0.5)
		bins[i].P16 = quantile(v, 0.16)
		bins[i].P84 = quantile(v, 0.84)
	}
	return bins
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

// FaultTraceDistanceKM returns the horizontal distance (km) from surface
// point (x, y) to the polyline trace (all in meters).
func FaultTraceDistanceKM(x, y float64, trace [][2]float64) float64 {
	if len(trace) == 0 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for i := 0; i+1 < len(trace); i++ {
		d := pointSegDist(x, y, trace[i][0], trace[i][1], trace[i+1][0], trace[i+1][1])
		if d < best {
			best = d
		}
	}
	if len(trace) == 1 {
		best = math.Hypot(x-trace[0][0], y-trace[0][1])
	}
	return best / 1000
}

func pointSegDist(px, py, ax, ay, bx, by float64) float64 {
	dx, dy := bx-ax, by-ay
	l2 := dx*dx + dy*dy
	if l2 == 0 {
		return math.Hypot(px-ax, py-ay)
	}
	t := ((px-ax)*dx + (py-ay)*dy) / l2
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return math.Hypot(px-(ax+t*dx), py-(ay+t*dy))
}
