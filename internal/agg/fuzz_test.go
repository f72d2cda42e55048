package agg

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/mpiio"
	"repro/internal/pfs"
)

// FuzzCoalesceWriteIdentity drives random non-overlapping views — odd
// lengths, zero-length extents, extents in any order — through both write
// paths: one WriteAt per extent (the per-rank path) and the aggregator's,
// where the view is split across writers, each writer's pieces (plus one of
// no bytes) are encoded as a shipment, read back as they arrive and
// written coalesced. The files must be byte-identical, zero-filled gaps
// included. It also pins each writer's runs — offsets strictly increasing,
// no two mergeable neighbors left — and that the pieces cover the view
// exactly once, each within one writer's columns.
func FuzzCoalesceWriteIdentity(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(7), uint64(0))
	f.Add([]byte{0, 8, 0, 8, 0, 8}, uint8(0), uint64(0)) // fully adjacent: one run
	f.Add([]byte{200, 1}, uint8(255), uint64(0))
	f.Add([]byte{0, 7, 0, 0, 3, 5, 0, 16, 1, 13}, uint8(1), uint64(3)) // odd and empty extents, shuffled
	f.Add([]byte{0, 16, 0, 16, 0, 16, 0, 16}, uint8('A'), uint64(11))
	f.Fuzz(func(t *testing.T, layout []byte, fill uint8, order uint64) {
		// Alternating gap/extent lengths; gaps of zero make extents
		// adjacent, which is exactly what the writer must merge.
		var segs []mpiio.Segment
		off := 0
		for idx := 0; idx+1 < len(layout); idx += 2 {
			off += int(layout[idx] % 17)
			n := int(layout[idx+1] % 17)
			segs = append(segs, mpiio.Segment{Off: off, Len: n})
			off += n
		}
		if mpiio.TotalLen(segs) == 0 {
			return
		}
		rand.New(rand.NewPCG(order, 0)).Shuffle(len(segs), func(a, b int) { segs[a], segs[b] = segs[b], segs[a] })
		data := make([]byte, mpiio.TotalLen(segs))
		for i := range data {
			data[i] = fill + byte(i*37)
		}

		cfg := pfs.Config{OSTs: 4, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 8}
		fsys := pfs.New(cfg)

		// Per-rank path: one write per extent; an empty one writes nothing.
		p := 0
		for _, s := range segs {
			if s.Len > 0 {
				if err := fsys.WriteAt("naive", s.Off, data[p:p+s.Len]); err != nil {
					t.Fatal(err)
				}
			}
			p += s.Len
		}

		// Aggregator path.
		pl := NewPlacement(4, 16, 0, 4)
		covered := 0
		for w, pieces := range pl.splitByOwner(segs, data) {
			for _, pc := range pieces {
				covered += len(pc.data)
				if own := pl.Owner(pc.off); own != w || own != pl.Owner(pc.off+len(pc.data)-1) {
					t.Fatalf("writer %d's piece [%d,%d) spans owners %d..%d", w, pc.off, pc.off+len(pc.data), own, pl.Owner(pc.off+len(pc.data)-1))
				}
			}
			arrived, err := readShipment(nil, encodeShipment(append(pieces, piece{off: 5})))
			if err != nil {
				t.Fatal(err)
			}
			runs, err := writeCoalesced(fsys, "agg", arrived)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, pc := range pieces {
				n += len(pc.data)
			}
			if mpiio.TotalLen(runs) != n {
				t.Fatalf("writer %d: runs %v hold %d bytes, its pieces %d", w, runs, mpiio.TotalLen(runs), n)
			}
			for i := 1; i < len(runs); i++ {
				if runs[i].Off <= runs[i-1].Off+runs[i-1].Len {
					t.Fatalf("writer %d: runs %v not strictly separated", w, runs)
				}
			}
		}
		if covered != len(data) {
			t.Fatalf("split covered %d bytes, want %d", covered, len(data))
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
			t.Fatalf("aggregated write %v differs from per-extent writes %v of view %v", b, a, segs)
		}
	})
}
