package output

import (
	"crypto/md5"
	"encoding"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cpu"
)

//go:generate go run repro/scripts/md5gen

// Multi-buffer MD5: a hash list's chunks and ParallelMD5's parts are
// independent streams, so a core with AVX2 hashes up to 8 of them at once,
// one a 32-bit lane of a YMM register (md5_gen_amd64.s, generated from one
// table of MD5's 64 steps by scripts/md5gen). A lane's digest is
// crypto/md5's: the body runs the compression function over the lanes'
// common whole blocks, and crypto/md5 finishes each lane from that state
// (its MarshalBinary format, which the hash package keeps compatible)
// through the lane's own tail and padding.

// A span is one lane's bytes: data[off : off+n] of the slice a batch hashes.
type span struct{ off, n int }

// A body hashes up to width spans of one slice in one call.
type body struct {
	name  string
	width int
	has   cpu.Feature
	run   func(state *[4][8]uint32, base *byte, offs *[8]int32, blocks int) // nil: crypto/md5 a span at a time
}

// bodies are crypto/md5, which runs on every host, and the 8-lane body.
var bodies = []body{
	{name: "go", width: 1, has: cpu.Feature{Has: true}},
	{name: "avx2", width: 8, has: cpu.AVX2, run: md5x8},
}

// lanes is the body ParallelMD5 and HashListMD5 batch for, the widest the
// host runs, chosen once.
var lanes = widest()

func widest() body {
	b := bodies[0]
	for _, c := range bodies[1:] {
		if c.has.Has {
			b = c
		}
	}
	return b
}

// batches splits n items into the fewest batches of at most width items,
// their sizes differing by at most one (18 items are 3×6 at 8 lanes, not
// 8+8+2), and returns batch j's items as [cut[j], cut[j+1]).
func batches(n, width int) []int {
	nb := (n + width - 1) / width
	cut := make([]int, nb+1)
	for j := 1; j <= nb; j++ {
		cut[j] = j * n / nb
	}
	return cut
}

// hashBatches returns the MD5 of each span of data, hashed by lanes: batch
// j, spans [cut[j], cut[j+1]), is one forEachPart item.
func hashBatches(data []byte, spans []span, cut []int) [][md5.Size]byte {
	sums := make([][md5.Size]byte, len(spans))
	forEachPart(len(cut)-1, func(j int) {
		lanes.sum(data, spans[cut[j]:cut[j+1]], sums[cut[j]:cut[j+1]])
	})
	return sums
}

// sum writes the MD5 of each span of data into sums. It panics, before any
// body runs, if there are more spans than b.width or a span does not lie
// inside data. One span, spans with no common whole block, and spans whose
// lane offsets do not fit a 32-bit gather index run on crypto/md5.
func (b body) sum(data []byte, spans []span, sums [][md5.Size]byte) {
	if len(spans) > b.width {
		panic(fmt.Sprintf("output: %d spans for a %d-lane body", len(spans), b.width))
	}
	lo, hi, common := len(data), 0, math.MaxInt
	for _, s := range spans {
		if s.off < 0 || s.n < 0 || s.n > len(data)-s.off {
			panic(fmt.Sprintf("output: md5 lane [%d,%d+%d) runs past its %d B slice", s.off, s.off, s.n, len(data)))
		}
		lo, hi, common = min(lo, s.off), max(hi, s.off), min(common, s.n)
	}
	blocks := common / md5.BlockSize
	if b.run == nil || len(spans) < 2 || blocks == 0 || hi-lo > math.MaxInt32 {
		for i, s := range spans {
			sums[i] = md5.Sum(data[s.off : s.off+s.n])
		}
		return
	}
	var st [4][8]uint32
	var offs [8]int32
	for l := range offs {
		st[0][l], st[1][l], st[2][l], st[3][l] = 0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476
		offs[l] = int32(spans[min(l, len(spans)-1)].off - lo) // spare lanes repeat the last span
	}
	b.run(&st, &data[lo], &offs, blocks)
	done := blocks * md5.BlockSize
	for i, s := range spans {
		sums[i] = finish(&st, i, done, data[s.off+done:s.off+s.n])
	}
}

// finish is lane l's digest: crypto/md5 resumed from the lane's state after
// done bytes, fed the rest of the lane.
func finish(st *[4][8]uint32, l, done int, rest []byte) [md5.Size]byte {
	// MarshalBinary's layout: magic, a, b, c, d big-endian, the pending
	// block (none: done is whole blocks), the length so far.
	var m [4 + 4*4 + md5.BlockSize + 8]byte
	copy(m[:], "md5\x01")
	for w := range st {
		binary.BigEndian.PutUint32(m[4+4*w:], st[w][l])
	}
	binary.BigEndian.PutUint64(m[len(m)-8:], uint64(done))
	h := md5.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(m[:]); err != nil {
		panic(err)
	}
	h.Write(rest)
	var sum [md5.Size]byte
	h.Sum(sum[:0])
	return sum
}
