package analysis

import (
	"math"
	"testing"
)

func sine(f, dt float64, n int, amp float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(amp * math.Sin(2*math.Pi*f*float64(i)*dt))
	}
	return out
}

func TestAmplitudeRecoversSine(t *testing.T) {
	dt := 0.01
	s := sine(1.5, dt, 4000, 2.5)
	if got := Amplitude(s, dt, 1.5); math.Abs(got-2.5) > 0.05 {
		t.Fatalf("amplitude at 1.5 Hz = %g, want 2.5", got)
	}
	// Off-peak: small.
	if got := Amplitude(s, dt, 0.4); got > 0.2 {
		t.Fatalf("off-peak amplitude %g too large", got)
	}
	if Amplitude(nil, dt, 1) != 0 || Amplitude(s, 0, 1) != 0 {
		t.Fatal("degenerate inputs should be 0")
	}
}

func TestDominantPeriod(t *testing.T) {
	dt := 0.01
	// 0.35 Hz dominant + weaker 2 Hz component.
	s := sine(0.35, dt, 6000, 3)
	hi := sine(2.0, dt, 6000, 1)
	for i := range s {
		s[i] += hi[i]
	}
	period := DominantPeriod(s, dt, 0.1, 5, 200)
	if math.Abs(period-1/0.35) > 0.3 {
		t.Fatalf("dominant period %g s, want ~%g s", period, 1/0.35)
	}
}

func TestBandEnergyFraction(t *testing.T) {
	dt := 0.005
	s := sine(1.5, dt, 8000, 1) // all energy near 1.5 Hz
	frac := BandEnergyFraction(s, dt, 1.0, 2.0, 0.05, 10)
	if frac < 0.8 {
		t.Fatalf("in-band fraction %g, want > 0.8", frac)
	}
	out := BandEnergyFraction(s, dt, 4, 8, 0.05, 10)
	if out > 0.1 {
		t.Fatalf("out-of-band fraction %g, want small", out)
	}
}

func TestSpectrumAndLogFreqs(t *testing.T) {
	freqs := LogFreqs(0.1, 10, 5)
	if len(freqs) != 5 || math.Abs(freqs[0]-0.1) > 1e-12 || math.Abs(freqs[4]-10) > 1e-9 {
		t.Fatalf("LogFreqs = %v", freqs)
	}
	for i := 1; i < len(freqs); i++ {
		if freqs[i] <= freqs[i-1] {
			t.Fatal("not increasing")
		}
	}
	// The amplitude spectrum of a 1 Hz sine over those frequencies peaks at
	// the 1 Hz probe.
	dt := 0.01
	s := sine(1.0, dt, 2000, 1)
	peak := 0
	for i, f := range freqs {
		if Amplitude(s, dt, f) > Amplitude(s, dt, freqs[peak]) {
			peak = i
		}
	}
	if math.Abs(freqs[peak]-1) > 1e-9 {
		t.Fatalf("spectrum peaks at %g Hz, want 1 Hz", freqs[peak])
	}
	if LogFreqs(1, 2, 1)[0] != 1 {
		t.Fatal("degenerate LogFreqs")
	}
}
