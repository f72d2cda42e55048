package output

// What only the benchmark reaches, kept until it stops calling it:
//
//	bench/probes.go:353  output.ParallelMD5(data, 8)
//	bench/probes.go:354  output.SerialMD5(data, 8)

import (
	"crypto/md5"
	"encoding/hex"
)

// ParallelMD5 computes MD5 checksums of nparts contiguous sub-arrays of
// data on at most GOMAXPROCS goroutines — the parallelized integrity pass
// that "substantially decreases the time needed to generate the checksums
// for several terabytes" (§III.E). The parts go in balanced batches, one
// a goroutine's turn, each batch hashed in the host's MD5 lanes (lanes.go).
func ParallelMD5(data []byte, nparts int) []string {
	if nparts <= 0 {
		nparts = 1
	}
	if nparts > len(data) && len(data) > 0 {
		nparts = len(data)
	}
	spans := make([]span, nparts)
	for p := range spans {
		lo := p * len(data) / nparts
		spans[p] = span{lo, (p+1)*len(data)/nparts - lo}
	}
	sums := hashBatches(data, spans, batches(nparts, lanes.width))
	out := make([]string, nparts)
	for p, s := range sums {
		out[p] = hex.EncodeToString(s[:])
	}
	return out
}

// SerialMD5 is the reference implementation for verification.
func SerialMD5(data []byte, nparts int) []string {
	if nparts <= 0 {
		nparts = 1
	}
	if nparts > len(data) && len(data) > 0 {
		nparts = len(data)
	}
	sums := make([]string, nparts)
	for p := 0; p < nparts; p++ {
		lo := p * len(data) / nparts
		hi := (p + 1) * len(data) / nparts
		s := md5.Sum(data[lo:hi])
		sums[p] = hex.EncodeToString(s[:])
	}
	return sums
}
