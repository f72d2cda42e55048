package analysis

import "math"

// Spectral analysis for derived data products (dPDA, §III.I) — the tool
// behind observations like §VII.C's "a spectral analysis shows that these
// peaks correspond to periods of 2–4 s" at San Bernardino.

// Amplitude returns the Fourier amplitude of a uniformly sampled series at
// frequency f (Hz), evaluated with the Goertzel recurrence (no FFT length
// restrictions).
func Amplitude(series []float32, dt, f float64) float64 {
	n := len(series)
	if n == 0 || dt <= 0 {
		return 0
	}
	w := 2 * math.Pi * f * dt
	cw := math.Cos(w)
	coeff := 2 * cw
	var s0, s1, s2 float64
	for _, v := range series {
		s0 = float64(v) + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	re := s1 - s2*cw
	im := s2 * math.Sin(w)
	return 2 * math.Hypot(re, im) / float64(n)
}

// LogFreqs returns n log-spaced frequencies spanning [fmin, fmax].
func LogFreqs(fmin, fmax float64, n int) []float64 {
	if n < 2 {
		return []float64{fmin}
	}
	out := make([]float64, n)
	l0, l1 := math.Log(fmin), math.Log(fmax)
	for i := range out {
		out[i] = math.Exp(l0 + float64(i)/float64(n-1)*(l1-l0))
	}
	return out
}

// DominantPeriod returns the period (s) of the largest spectral amplitude
// of the series within the band [fmin, fmax], scanning nProbe log-spaced
// frequencies — the quantity quoted for the San Bernardino basin response.
func DominantPeriod(series []float32, dt, fmin, fmax float64, nProbe int) float64 {
	if nProbe < 8 {
		nProbe = 8
	}
	freqs := LogFreqs(fmin, fmax, nProbe)
	best, bestAmp := freqs[0], -1.0
	for _, f := range freqs {
		if a := Amplitude(series, dt, f); a > bestAmp {
			bestAmp = a
			best = f
		}
	}
	return 1 / best
}

// BandEnergyFraction returns the fraction of total spectral energy (over
// [fTotMin, fTotMax]) contained in [f0, f1] — used to quantify statements
// like "a significant amount of energy between 1 and 2 Hz" (§VII.C).
func BandEnergyFraction(series []float32, dt, f0, f1, fTotMin, fTotMax float64) float64 {
	probe := LogFreqs(fTotMin, fTotMax, 64)
	var in, tot float64
	for _, f := range probe {
		a := Amplitude(series, dt, f)
		e := a * a
		tot += e
		if f >= f0 && f <= f1 {
			in += e
		}
	}
	if tot == 0 {
		return 0
	}
	return in / tot
}
