package fd

import "repro/internal/cpu"

// Vector reports whether the host runs the 8-lane walkers of this package,
// attenuation and boundary (walkers_gen_amd64.s, DESIGN.md §9): the CPU has
// AVX2 and the OS saves the YMM registers across context switches. It is
// read once, from CPUID; a host without AVX2 sweeps every cell in Go.
var Vector = cpu.AVX2.Has
