// Package output implements the parallel-output machinery of §III.E:
// run-time aggregation of decimated velocity output in memory buffers
// flushed at a controlled frequency (Dist; the optimization that cut I/O
// overhead from 49% to under 2%, priced by OverheadModel), and parallel MD5
// checksumming of the sub-arrays for integrity tracking.
package output

import (
	"crypto/md5"
	"encoding/hex"
	"sync"

	"repro/internal/pfs"
)

// ParallelMD5 computes MD5 checksums of nparts contiguous sub-arrays of
// data concurrently — the parallelized integrity pass that "substantially
// decreases the time needed to generate the checksums for several
// terabytes" (§III.E).
func ParallelMD5(data []byte, nparts int) []string {
	if nparts <= 0 {
		nparts = 1
	}
	if nparts > len(data) && len(data) > 0 {
		nparts = len(data)
	}
	sums := make([]string, nparts)
	var wg sync.WaitGroup
	for p := 0; p < nparts; p++ {
		lo := p * len(data) / nparts
		hi := (p + 1) * len(data) / nparts
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			s := md5.Sum(data[lo:hi])
			sums[p] = hex.EncodeToString(s[:])
		}(p, lo, hi)
	}
	wg.Wait()
	return sums
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

// OverheadModel prices the I/O overhead fraction of a run: stepCompute is
// the per-step compute time, perStepBytes the output volume per recorded
// step, flushEvery the aggregation interval. It reproduces the 49% -> <2%
// aggregation result as a function of flushEvery.
func OverheadModel(fsys *pfs.FS, path string, steps int, stepCompute float64, perStepBytes, flushEvery int) (ioFraction float64) {
	if flushEvery <= 0 {
		flushEvery = 1
	}
	var ioTime float64
	nFlushes := steps / flushEvery
	if nFlushes == 0 {
		nFlushes = 1
	}
	for f := 0; f < nFlushes; f++ {
		st := fsys.SimulatePhase([]pfs.Op{{
			Path: path, Bytes: perStepBytes * flushEvery, Write: true, Open: true,
		}})
		ioTime += st.Elapsed
	}
	total := float64(steps)*stepCompute + ioTime
	if total == 0 {
		return 0
	}
	return ioTime / total
}
