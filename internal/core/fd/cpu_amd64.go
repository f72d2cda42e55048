package fd

// Vector reports whether the host runs the 8-lane walkers of this package,
// attenuation and boundary (walkers_gen_amd64.s, DESIGN.md §9): the CPU has
// AVX2 and the OS saves the YMM registers across context switches. It is
// read once, from CPUID; a host without AVX2 sweeps every cell in Go.
var Vector = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bit 1 is the SSE state, bit 2 the upper halves of the YMM registers.
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32
