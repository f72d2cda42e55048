package fd

import (
	"math"
	"testing"
)

func TestQuiesce(t *testing.T) {
	floor := float32(math.Ldexp(1, -100))
	below := math.Float32frombits(math.Float32bits(floor) - 1) // next float toward zero
	inf := float32(math.Inf(1))
	pass := []float32{floor, -floor, 1, -1, math.MaxFloat32, -math.MaxFloat32, inf, -inf}
	for _, x := range pass {
		if got := Quiesce(x); got != x {
			t.Errorf("Quiesce(%g) = %g, want it kept", x, got)
		}
	}
	negZero := float32(math.Copysign(0, -1))
	zeroed := []float32{0, negZero, below, -below, 1e-35,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), // largest subnormal
		math.Float32frombits(0x00800000), // smallest normal
	}
	for _, x := range zeroed {
		if got := Quiesce(x); math.Float32bits(got) != 0 {
			t.Errorf("Quiesce(%g) = %g (bits %#x), want +0", x, got, math.Float32bits(got))
		}
	}
	for _, bits := range []uint32{0x7fc00000, 0xffc00001} { // quiet NaNs, both signs
		if got := math.Float32bits(Quiesce(math.Float32frombits(bits))); got != bits {
			t.Errorf("Quiesce(NaN %#x) = %#x, want it unchanged", bits, got)
		}
	}
}
