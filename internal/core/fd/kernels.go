package fd

import "fmt"

// Variant selects a kernel implementation of the §IV.B ablation, which
// bench's kernel probes and the tests reach through UpdateVelocity and
// UpdateStress: Blocked is the production pair, the one the solver runs
// (its tapered sweeps, UpdateVelocityTapered and UpdateStressTapered), and
// Naive and Precomp are the two rungs of how it got there. The solver takes
// no Variant: its Options keep the field for bench only.
type Variant int

const (
	// Default, the zero value, is the production kernel: an Options literal
	// that leaves Variant out runs what every other caller runs. The kernels
	// themselves take Naive, Precomp or Blocked.
	Default Variant = iota
	// Naive computes staggered material averages inline with one division
	// per operand (the pre-2009 code).
	Naive
	// Precomp reads fully precomputed staggered coefficient arrays, one
	// point at a time over the whole box with whole-array indexing. It is
	// the reference the tests hold the production pair to, bit for bit.
	Precomp
	// Blocked is the production pair: Precomp's arithmetic as a windowed,
	// bounds-check-free row sweep (rows.go), run per jblock x kblock panel
	// (§IV.B cache blocking) by UpdateVelocity and UpdateStress.
	Blocked
)

func (v Variant) String() string {
	switch v {
	case Default:
		return "default"
	case Naive:
		return "naive"
	case Precomp:
		return "precomp"
	case Blocked:
		return "blocked"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}
