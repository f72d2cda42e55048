package cpu

func probe() Feature {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return Feature{Why: "CPUID has no leaf 7"}
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return Feature{Why: "CPUID.1:ECX has no AVX or OSXSAVE"}
	}
	// XCR0 bit 1 is the SSE state, bit 2 the upper halves of the YMM registers.
	if xgetbv0()&6 != 6 {
		return Feature{Why: "the OS does not save the YMM state (XCR0 bits 1–2)"}
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&(1<<5) == 0 {
		return Feature{Why: "CPUID.7:EBX has no AVX2"}
	}
	return Feature{Has: true}
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32
