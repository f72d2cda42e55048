package agg

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

func testFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 8, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 16})
}

func TestPlacementOneWriterPerColumn(t *testing.T) {
	for _, tc := range []struct{ count, agg, ranks, wantWriters int }{
		{8, 4, 64, 4},
		{8, 0, 64, 8},  // default: as many writers as columns
		{8, 16, 64, 8}, // capped at stripe count
		{8, 16, 3, 3},  // capped at rank count
		{670, 64, 1024, 64},
		{1, 8, 8, 1},
	} {
		p := NewPlacement(tc.count, 1<<16, tc.agg, tc.ranks)
		if p.Writers != tc.wantWriters {
			t.Fatalf("placement %+v: writers = %d, want %d", tc, p.Writers, tc.wantWriters)
		}
		// Each stripe column maps to exactly one writer; the column→writer
		// map is a partition into contiguous non-empty blocks.
		prev := 0
		seen := map[int]bool{}
		for col := 0; col < tc.count; col++ {
			w := p.Owner(col * p.StripeSize)
			if w < prev || w > prev+1 {
				t.Fatalf("placement %+v: column %d jumps from writer %d to %d", tc, col, prev, w)
			}
			prev = w
			seen[w] = true
			// Ownership is per-column: every byte of the column agrees.
			for _, off := range []int{0, 1, p.StripeSize - 1} {
				base := col*p.StripeSize + off
				if p.Owner(base) != w || p.Owner(base+tc.count*p.StripeSize) != w {
					t.Fatalf("placement %+v: column %d ownership not uniform", tc, col)
				}
			}
		}
		if len(seen) != p.Writers {
			t.Fatalf("placement %+v: %d writers used, want %d", tc, len(seen), p.Writers)
		}
	}
}

func TestCoalesceMergesAdjacent(t *testing.T) {
	fsys := testFS()
	pieces := []piece{
		{off: 100, data: bytes.Repeat([]byte{3}, 10)},
		{off: 0, data: bytes.Repeat([]byte{1}, 50)},
		{off: 50, data: bytes.Repeat([]byte{2}, 50)}, // adjacent to the previous two: 0..110
		{off: 200, data: bytes.Repeat([]byte{4}, 5)},
	}
	runs, err := writeCoalesced(fsys, "f", arrive(t, pieces))
	if err != nil {
		t.Fatal(err)
	}
	want := []mpiio.Segment{{Off: 0, Len: 110}, {Off: 200, Len: 5}}
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("coalesced to %v, want %v", runs, want)
	}
	got := make([]byte, 205)
	if err := fsys.ReadAt("f", 0, got); err != nil {
		t.Fatal(err)
	}
	if got[49] != 1 || got[50] != 2 || got[109] != 3 || got[150] != 0 || got[204] != 4 {
		t.Fatalf("file holds %v", got)
	}
	if runs, err := writeCoalesced(fsys, "g", nil); runs != nil || err != nil {
		t.Fatalf("empty input wrote %v, %v", runs, err)
	}
	overlap := []piece{{off: 0, data: make([]byte, 10)}, {off: 5, data: make([]byte, 10)}}
	if _, err := writeCoalesced(fsys, "h", arrive(t, overlap)); err == nil {
		t.Fatal("overlapping pieces accepted")
	}
}

// arrive passes pieces through the shipment wire format as their writer
// receives them.
func arrive(t testing.TB, pieces []piece) []arrival {
	t.Helper()
	got, err := readShipment(nil, encodeShipment(pieces))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// A shipment whose piece headers do not fit the message is an error, not a
// panic or a short write.
func TestReadShipmentRejects(t *testing.T) {
	good := encodeShipment([]piece{{off: 3, data: []byte("abcdefg")}})
	huge := slices.Clone(good)
	huge[0] = math.Float32frombits(1 << 31) // offset past MaxInt
	for name, msg := range map[string][]float32{
		"header cut short":  good[:3],
		"bytes cut short":   good[:len(good)-1],
		"offset past int":   huge,
		"trailing words":    append(slices.Clone(good), 0),
		"length past words": {0, 0, 0, math.Float32frombits(5)},
	} {
		if got, err := readShipment(nil, msg); err == nil {
			t.Errorf("%s: read %d pieces without an error", name, len(got))
		}
	}
	if got, err := readShipment(nil, good); err != nil || len(got) != 1 || got[0].off != 3 || got[0].n != 7 {
		t.Fatalf("well-formed shipment read as %+v, %v", got, err)
	}
}

// TestWriteIndexedViewOutOfOrder: a view whose extents are not in file
// order — {0,8}, {16,8}, {8,8} on stripes of 16 over 2 writers — lands as
// the per-rank path writes it. Extending a writer's piece by appending to
// a window of the caller's data once overwrote the piece cut before it for
// the other writer: the file read AAAAAAAACCCCCCCCCCCCCCCC.
func TestWriteIndexedViewOutOfOrder(t *testing.T) {
	fsys := testFS()
	fsys.SetStripe("out/", 2, 16)
	segs := []mpiio.Segment{{Off: 0, Len: 8}, {Off: 16, Len: 8}, {Off: 8, Len: 8}}
	data := []byte("AAAAAAAABBBBBBBBCCCCCCCC")
	mpi.NewWorld(2).Run(func(c *mpi.Comm) {
		var s []mpiio.Segment
		var d []byte
		if c.Rank() == 0 {
			s, d = segs, slices.Clone(data)
		}
		st, err := WriteIndexed(c, fsys, "out/agg", s, d, Config{Aggregators: 2})
		if err != nil {
			panic(err)
		}
		if st.Writers != 2 {
			panic(fmt.Sprintf("%d writers, want 2", st.Writers))
		}
	})
	if err := mpiio.WriteIndexed(fsys, "out/ref", segs, data); err != nil {
		t.Fatal(err)
	}
	got, ref := make([]byte, 24), make([]byte, 24)
	if err := fsys.ReadAt("out/agg", 0, got); err != nil {
		t.Fatal(err)
	}
	if err := fsys.ReadAt("out/ref", 0, ref); err != nil {
		t.Fatal(err)
	}
	if string(got) != "AAAAAAAACCCCCCCCBBBBBBBB" || !bytes.Equal(got, ref) {
		t.Fatalf("aggregated file %q, per-rank file %q", got, ref)
	}
}

func TestThrottledPhaseWaves(t *testing.T) {
	fsys := testFS()
	var ops []pfs.Op
	for i := 0; i < 10; i++ {
		ops = append(ops,
			pfs.Op{Path: "f", Off: i << 20, Bytes: 1 << 20, Write: true, Open: true},
			pfs.Op{Path: "f", Off: i<<20 + 1<<19, Bytes: 1 << 19, Write: true})
	}
	st, waves := ThrottledPhase(fsys, ops, 4)
	if waves != 3 { // 10 opens / 4 per wave
		t.Fatalf("waves = %d, want 3", waves)
	}
	// The summed cost equals pricing the three waves independently.
	a := fsys.SimulatePhase(ops[:8])
	b := fsys.SimulatePhase(ops[8:16])
	c := fsys.SimulatePhase(ops[16:])
	if got, want := st.Elapsed, a.Elapsed+b.Elapsed+c.Elapsed; math.Abs(got-want) > 1e-12 {
		t.Fatalf("elapsed = %g, want %g", got, want)
	}
	if st.Bytes != a.Bytes+b.Bytes+c.Bytes {
		t.Fatalf("bytes = %d", st.Bytes)
	}

	// Unthrottled: one wave, identical to SimulatePhase.
	st1, waves1 := ThrottledPhase(fsys, ops, 0)
	if waves1 != 1 {
		t.Fatalf("default throttle split %d opens into %d waves", 10, waves1)
	}
	if whole := fsys.SimulatePhase(ops); st1.Elapsed != whole.Elapsed {
		t.Fatalf("single wave elapsed %g != SimulatePhase %g", st1.Elapsed, whole.Elapsed)
	}

	// What the waves are for (§IV.E): 400 one-MiB opens against a metadata
	// server that serves 50 at once cost less in eight waves of 50 than as
	// one storm of 400.
	storm := pfs.New(pfs.Config{OSTs: 64, OSTBandwidth: 1e8, MDSLatency: 1e-3, MDSConcurrent: 50})
	ops = ops[:0]
	for r := 0; r < 400; r++ {
		ops = append(ops, pfs.Op{Path: fmt.Sprintf("ckpt/%d", r), Bytes: 1 << 20, Write: true, Open: true})
	}
	throttled, w50 := ThrottledPhase(storm, ops, 50)
	unthrottled, w400 := ThrottledPhase(storm, ops, 400)
	if w50 != 8 || w400 != 1 {
		t.Fatalf("waves = %d and %d, want 8 and 1", w50, w400)
	}
	if throttled.Elapsed >= unthrottled.Elapsed {
		t.Fatalf("throttle 50 took %g s, throttle 400 %g s: throttling did not help", throttled.Elapsed, unthrottled.Elapsed)
	}
}

// rankView gives rank r of P an x-slab of the global grid with
// deterministic content.
func rankView(g grid.Dims, rec, r, P int) ([]mpiio.Segment, []byte) {
	i0 := r * g.NX / P
	i1 := (r + 1) * g.NX / P
	if i0 == i1 {
		return nil, nil
	}
	segs := mpiio.BlockSegments(g, i0, i1, 0, g.NY, 0, g.NZ, rec)
	data := make([]byte, mpiio.TotalLen(segs))
	p := 0
	for _, s := range segs {
		for b := 0; b < s.Len; b++ {
			data[p] = byte((s.Off + b) * 131)
			p++
		}
	}
	return segs, data
}

func TestWriteIndexedBitIdenticalToPerRank(t *testing.T) {
	const P = 8
	g := grid.Dims{NX: 24, NY: 10, NZ: 6}
	const rec = 12
	fsys := testFS()
	fsys.SetStripe("out/", 4, 1<<10) // small stripes so runs split across writers

	var stats WriteStats
	w := mpi.NewWorld(P)
	w.Run(func(c *mpi.Comm) {
		segs, data := rankView(g, rec, c.Rank(), P)
		// Per-rank reference: every rank writes its own view directly.
		if err := mpiio.WriteIndexed(fsys, "out/ref", segs, data); err != nil {
			panic(err)
		}
		st, err := WriteIndexed(c, fsys, "out/agg", segs, data, Config{Aggregators: 3})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			stats = st
		}
	})

	n := fsys.Size("out/agg")
	if want := g.NX * g.NY * g.NZ * rec; n != want {
		t.Fatalf("aggregated file %d bytes, want %d", n, want)
	}
	if fsys.Size("out/ref") != n {
		t.Fatalf("reference file %d bytes", fsys.Size("out/ref"))
	}
	a := make([]byte, n)
	b := make([]byte, n)
	if err := fsys.ReadAt("out/agg", 0, a); err != nil {
		t.Fatal(err)
	}
	if err := fsys.ReadAt("out/ref", 0, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("aggregated file differs from per-rank reference")
	}

	if stats.Writers != 3 || stats.Opens != 3 {
		t.Fatalf("writers/opens = %d/%d, want 3/3", stats.Writers, stats.Opens)
	}
	if stats.Bytes != n || stats.Phase.Bytes != n {
		t.Fatalf("stats bytes %d / phase bytes %d, want %d", stats.Bytes, stats.Phase.Bytes, n)
	}
	if stats.Waves != 1 || stats.MaxConcurrentOpens != 3 {
		t.Fatalf("waves/maxconc = %d/%d", stats.Waves, stats.MaxConcurrentOpens)
	}
	if stats.Writes >= stats.Segments {
		t.Fatalf("coalescing did not reduce ops: %d writes vs %d segments", stats.Writes, stats.Segments)
	}

	// A stripe range of the aggregated file hashes as the same stripes of
	// the reference file; the range is cut at EOF.
	ref, err := FileStripeChecksums(fsys, "out/ref")
	if err != nil {
		t.Fatal(err)
	}
	if want := (n + 1<<10 - 1) >> 10; len(ref) != want {
		t.Fatalf("%d stripe checksums of a %d-byte file, want %d", len(ref), n, want)
	}
	got, err := StripeChecksums(fsys, "out/agg", 2, len(ref)+5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref[2:]) {
		t.Fatalf("stripes [2,EOF) of the aggregated file %+v, of the reference %+v", got, ref[2:])
	}
}

func TestWriteIndexedStatsAgreeOnAllRanks(t *testing.T) {
	const P = 6
	g := grid.Dims{NX: 12, NY: 6, NZ: 4}
	fsys := testFS()
	fsys.SetStripe("out/", 2, 1<<9)
	all := make([]WriteStats, P)
	w := mpi.NewWorld(P)
	w.Run(func(c *mpi.Comm) {
		segs, data := rankView(g, 4, c.Rank(), P)
		st, err := WriteIndexed(c, fsys, "out/f", segs, data, Config{})
		if err != nil {
			panic(err)
		}
		all[c.Rank()] = st
	})
	for r := 1; r < P; r++ {
		if !reflect.DeepEqual(all[r], all[0]) {
			t.Fatalf("rank %d stats %+v differ from rank 0 %+v", r, all[r], all[0])
		}
	}
}

func TestWriteIndexedEmptyRanksAndEmptyWrite(t *testing.T) {
	const P = 4
	fsys := testFS()
	w := mpi.NewWorld(P)
	w.Run(func(c *mpi.Comm) {
		// Only rank 2 has data.
		var segs []mpiio.Segment
		var data []byte
		if c.Rank() == 2 {
			segs = []mpiio.Segment{{Off: 8, Len: 16}}
			data = bytes.Repeat([]byte{0x5C}, 16)
		}
		st, err := WriteIndexed(c, fsys, "solo", segs, data, Config{})
		if err != nil {
			panic(err)
		}
		if st.Writers != 1 || st.Bytes != 16 {
			panic("bad solo stats")
		}
	})
	got := make([]byte, 24)
	if err := fsys.ReadAt("solo", 0, got); err != nil {
		t.Fatal(err)
	}
	want := append(make([]byte, 8), bytes.Repeat([]byte{0x5C}, 16)...)
	if !bytes.Equal(got, want) {
		t.Fatal("solo write content mismatch")
	}

	// A fully empty collective write is a no-op on every rank.
	w2 := mpi.NewWorld(P)
	w2.Run(func(c *mpi.Comm) {
		st, err := WriteIndexed(c, fsys, "none", nil, nil, Config{})
		if err != nil || !reflect.DeepEqual(st, WriteStats{}) {
			panic("empty write should be a free no-op")
		}
	})
	if fsys.Exists("none") {
		t.Fatal("empty write created a file")
	}
}

func TestWriteIndexedWriterFaultPropagatesToAllRanks(t *testing.T) {
	const P = 4
	fsys := testFS()
	// Permanent write failure: every attempt faults, beyond any retry
	// budget.
	fsys.InjectFaults(pfs.FaultPlan{Seed: 1, WriteFailProb: 1, MaxConsecutive: 1 << 30})
	w := mpi.NewWorld(P)
	err := w.RunErr(func(c *mpi.Comm) error {
		segs := []mpiio.Segment{{Off: c.Rank() * 8, Len: 8}}
		_, err := WriteIndexed(c, fsys, "f", segs, make([]byte, 8), Config{Aggregators: 2})
		if err == nil {
			return errors.New("aggregated write succeeded under permanent faults")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteIndexedLengthMismatch(t *testing.T) {
	fsys := testFS()
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		_, err := WriteIndexed(c, fsys, "f", []mpiio.Segment{{Off: 0, Len: 8}}, make([]byte, 4), Config{})
		if err == nil {
			panic("length mismatch accepted")
		}
	})
}
