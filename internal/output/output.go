// Package output implements the parallel-output machinery of §III.E:
// run-time aggregation of decimated velocity output in memory buffers
// flushed at a controlled frequency (Dist; the optimization that cut I/O
// overhead from 49% to under 2%, priced by perfmodel's Eq. 7 I/O term), and
// parallel MD5 checksumming for integrity tracking: ParallelMD5 of a
// buffer's sub-arrays, and HashListMD5, the archive workflow's digest of a
// whole file.
package output

import (
	"crypto/md5"
	"encoding/hex"
	"runtime"
	"sync"
	"sync/atomic"
)

// hashListChunk is HashListMD5's chunk size. It is a constant so that a
// file's digest is the same on every host and at every worker count.
const hashListChunk = 1 << 20

// forEachPart calls fn(p) for every p in [0, nparts) on at most GOMAXPROCS
// goroutines, each taking the next part when it finishes one.
func forEachPart(nparts int, fn func(p int)) {
	workers := min(nparts, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for p := 0; p < nparts; p++ {
			fn(p)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := int(next.Add(1)) - 1; p < nparts; p = int(next.Add(1)) - 1 {
				fn(p)
			}
		}()
	}
	wg.Wait()
}

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

// HashListMD5 is the archive's one-string digest of data, hashed on all
// cores: the hex MD5 of the MD5s of data's consecutive 1 MiB chunks, in
// order (an MD5 hash list; the last chunk may be short, and empty data has
// no chunks). It is not the MD5 of data. The whole chunks are hashed in the
// host's MD5 lanes, in balanced batches; the short last chunk runs on its
// own.
func HashListMD5(data []byte) string {
	full := len(data) / hashListChunk
	spans := make([]span, 0, full+1)
	for lo := 0; lo < len(data); lo += hashListChunk {
		spans = append(spans, span{lo, min(hashListChunk, len(data)-lo)})
	}
	cut := batches(full, lanes.width)
	if len(spans) > full {
		cut = append(cut, len(spans)) // the short chunk: a batch of its own
	}
	list := make([]byte, 0, len(spans)*md5.Size)
	for _, s := range hashBatches(data, spans, cut) {
		list = append(list, s[:]...)
	}
	top := md5.Sum(list)
	return hex.EncodeToString(top[:])
}
