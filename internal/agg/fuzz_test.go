package agg

import (
	"bytes"
	"testing"

	"repro/internal/mpiio"
	"repro/internal/pfs"
)

// FuzzCoalesceWriteIdentity drives random non-overlapping segment
// layouts through both write paths — one WriteAt per segment (the naive
// per-rank path) and writeCoalesced, the aggregator's merge and write,
// fed the segments as pieces in reverse order — and requires the
// resulting files to be byte-identical, zero-filled gaps included. It
// also pins writeCoalesced's runs: offsets strictly increasing, no two
// mergeable neighbors left, total length preserved.
func FuzzCoalesceWriteIdentity(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(7))
	f.Add([]byte{0, 8, 0, 8, 0, 8}, uint8(0)) // fully adjacent: one run
	f.Add([]byte{200, 1}, uint8(255))
	f.Fuzz(func(t *testing.T, layout []byte, fill uint8) {
		// Alternating gap/run lengths; gaps of zero make runs adjacent,
		// which is exactly what Coalesce must merge.
		var segs []mpiio.Segment
		off := 0
		for idx := 0; idx < len(layout); idx += 2 {
			off += int(layout[idx] % 17)
			if idx+1 >= len(layout) {
				break
			}
			if n := int(layout[idx+1] % 17); n > 0 {
				segs = append(segs, mpiio.Segment{Off: off, Len: n})
				off += n
			}
		}
		if len(segs) == 0 {
			return
		}
		data := make([]byte, mpiio.TotalLen(segs))
		for i := range data {
			data[i] = fill + byte(i*37)
		}

		cfg := pfs.Config{OSTs: 4, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 8}
		fsys := pfs.New(cfg)

		// Naive path: one write per segment.
		p := 0
		for _, s := range segs {
			if err := fsys.WriteAt("naive", s.Off, data[p:p+s.Len]); err != nil {
				t.Fatal(err)
			}
			p += s.Len
		}

		// Aggregator path: the segments as pieces, last first, through
		// the writer's merge.
		var pieces []piece
		p = 0
		for _, s := range segs {
			pieces = append([]piece{{off: s.Off, data: data[p : p+s.Len]}}, pieces...)
			p += s.Len
		}
		runs, err := writeCoalesced(fsys, "agg", pieces)
		if err != nil {
			t.Fatal(err)
		}
		if mpiio.TotalLen(runs) != mpiio.TotalLen(segs) {
			t.Fatalf("coalesce changed total length: %d != %d", mpiio.TotalLen(runs), mpiio.TotalLen(segs))
		}
		for i := 1; i < len(runs); i++ {
			if runs[i].Off <= runs[i-1].Off+runs[i-1].Len {
				t.Fatalf("runs %v not strictly separated", runs)
			}
		}

		na, ag := fsys.Size("naive"), fsys.Size("agg")
		if na != ag {
			t.Fatalf("file sizes differ: naive %d, agg %d", na, ag)
		}
		a := make([]byte, na)
		b := make([]byte, ag)
		if err := fsys.ReadAt("naive", 0, a); err != nil {
			t.Fatal(err)
		}
		if err := fsys.ReadAt("agg", 0, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("coalesced writes differ from naive per-segment writes")
		}

		// The split/ship/merge pipeline must reproduce the same extents:
		// splitting the view across writers and re-coalescing each
		// writer's pieces covers the view exactly once.
		pl := NewPlacement(4, 16, 0, 4)
		covered := 0
		for _, pieces := range pl.splitByOwner(segs, data) {
			for _, pc := range pieces {
				covered += len(pc.data)
				for j, bb := range pc.data {
					want := data[dataIndex(segs, pc.off+j)]
					if bb != want {
						t.Fatalf("piece byte at file off %d is %d, want %d", pc.off+j, bb, want)
					}
				}
				if own := pl.Owner(pc.off); own != pl.Owner(pc.off+len(pc.data)-1) {
					// A piece may span columns only when every spanned
					// column has the same owner; endpoints agree by
					// construction of splitByOwner.
					t.Fatalf("piece [%d,%d) spans owners %d..%d", pc.off, pc.off+len(pc.data), own, pl.Owner(pc.off+len(pc.data)-1))
				}
			}
		}
		if covered != len(data) {
			t.Fatalf("split covered %d bytes, want %d", covered, len(data))
		}
	})
}

// dataIndex maps a file offset back to its index in the packed view
// buffer of segs (offset-ordered).
func dataIndex(segs []mpiio.Segment, off int) int {
	p := 0
	for _, s := range segs {
		if off >= s.Off && off < s.Off+s.Len {
			return p + (off - s.Off)
		}
		p += s.Len
	}
	panic("offset outside view")
}
