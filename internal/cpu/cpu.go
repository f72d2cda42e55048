// Package cpu reads, once at start-up, whether the host runs AVX2: the
// 8-lane walkers of fd, attenuation and boundary and output's 8-lane MD5
// body need it. It counts only when the CPU reports it and the OS saves the
// YMM registers across context switches.
package cpu

// A Feature is one instruction-set extension as this host runs it.
type Feature struct {
	Has bool
	Why string // when Has is false: the CPUID or XCR0 bit that is clear
}

// AVX2 is the host's AVX2, probed once.
var AVX2 = probe()
