package perfmodel

import (
	"math"
	"testing"
)

func TestMessageCost(t *testing.T) {
	if got := MessageCost(2e-6, 1e-9, 10, 1e6); math.Abs(got-(2e-5+1e-3)) > 1e-15 {
		t.Fatalf("MessageCost = %g, want %g", got, 2e-5+1e-3)
	}
	if got := MessageCost(5e-6, 0, 3, 0); math.Abs(got-1.5e-5) > 1e-18 {
		t.Fatalf("latency-only cost = %g", got)
	}
}

// The fit must recover exact (alpha, beta) from noiseless samples that vary
// message count and byte volume independently — the same decorrelation the
// halo sweep provides by running two subgrid sizes per topology.
func TestFitAlphaBetaRecoversExact(t *testing.T) {
	const alpha, beta = 3.1e-7, 9.4e-10
	var samples []CommSample
	for _, msgs := range []int{8, 24, 48} {
		for _, bytes := range []float64{4 << 10, 32 << 10, 256 << 10} {
			samples = append(samples, CommSample{
				Msgs: msgs, Bytes: bytes,
				Sec: MessageCost(alpha, beta, msgs, bytes),
			})
		}
	}
	a, b, ok := FitAlphaBeta(samples)
	if !ok {
		t.Fatal("fit reported singular system on well-conditioned samples")
	}
	if math.Abs(a-alpha) > 1e-6*alpha || math.Abs(b-beta) > 1e-6*beta {
		t.Fatalf("fit (%g, %g), want (%g, %g)", a, b, alpha, beta)
	}
}

func TestFitAlphaBetaRejectsDegenerateInputs(t *testing.T) {
	if _, _, ok := FitAlphaBeta(nil); ok {
		t.Error("fit succeeded on no samples")
	}
	if _, _, ok := FitAlphaBeta([]CommSample{{Msgs: 4, Bytes: 100, Sec: 1e-5}}); ok {
		t.Error("fit succeeded on one sample")
	}
	// msgs proportional to bytes in every sample: the two terms cannot be
	// separated and the near-singular guard must refuse a solution.
	var prop []CommSample
	for _, n := range []int{2, 4, 8, 16} {
		prop = append(prop, CommSample{Msgs: n, Bytes: float64(n) * 1024, Sec: float64(n) * 1e-6})
	}
	if _, _, ok := FitAlphaBeta(prop); ok {
		t.Error("fit succeeded on perfectly correlated samples")
	}
	// Samples with non-positive time or no traffic are skipped, not fitted.
	junk := []CommSample{{Msgs: 4, Bytes: 100, Sec: 0}, {Msgs: 0, Bytes: 0, Sec: 1}}
	if _, _, ok := FitAlphaBeta(junk); ok {
		t.Error("fit succeeded on junk-only samples")
	}
}
