package fd

import "math"

// quiescenceFloor2 is twice the bit pattern of float32(2^-100): the shifted
// form Quiesce compares against, so that the sign bit drops out.
const quiescenceFloor2 = 2 * ((127 - 100) << 23)

// Quiesce returns x, or +0 when |x| < 2^-100 (≈ 7.9e-31). Every
// velocity-update body stores through it, so a stored velocity is either
// exactly zero or at least 26 binades above the subnormal range and the
// arithmetic ahead of the wavefront stays on the hardware's fast path
// (DESIGN.md §9). ±Inf and NaN pass through unchanged.
//
// The test is on the bit pattern, not `x < q && x > -q`: the integer compare
// is one well-predicted branch whatever the sign of x, where the float form
// branches on sign too and mispredicts on mixed-sign data.
func Quiesce(x float32) float32 {
	if math.Float32bits(x)<<1 < quiescenceFloor2 {
		return 0
	}
	return x
}
