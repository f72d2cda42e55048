package pfs

import (
	"bytes"
	"testing"
)

func testFS() *FS {
	return New(Config{OSTs: 8, OSTBandwidth: 100e6, MDSLatency: 1e-3, MDSConcurrent: 16})
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := testFS()
	fs.WriteAt("a/mesh.bin", 10, []byte("hello"))
	buf := make([]byte, 5)
	if err := fs.ReadAt("a/mesh.bin", 10, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("hello")) {
		t.Fatalf("got %q", buf)
	}
	if fs.Size("a/mesh.bin") != 15 {
		t.Fatalf("size = %d", fs.Size("a/mesh.bin"))
	}
	// Sparse region reads as zeros.
	z := make([]byte, 10)
	if err := fs.ReadAt("a/mesh.bin", 0, z); err != nil {
		t.Fatal(err)
	}
	for _, b := range z {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
}

func TestReadErrors(t *testing.T) {
	fs := testFS()
	if err := fs.ReadAt("none", 0, make([]byte, 1)); err == nil {
		t.Error("missing file read succeeded")
	}
	fs.WriteAt("f", 0, []byte{1, 2, 3})
	if err := fs.ReadAt("f", 2, make([]byte, 5)); err == nil {
		t.Error("beyond-EOF read succeeded")
	}
}

func TestOverlappingWrites(t *testing.T) {
	fs := testFS()
	fs.WriteAt("f", 0, []byte{1, 1, 1, 1})
	fs.WriteAt("f", 2, []byte{9, 9})
	buf := make([]byte, 4)
	fs.ReadAt("f", 0, buf)
	if !bytes.Equal(buf, []byte{1, 1, 9, 9}) {
		t.Fatalf("got %v", buf)
	}
}

// TestWritePastEOFGrowsInPlace: a file written a chunk at a time past EOF
// keeps every earlier byte and reads zeros in each gap a write leaves; a
// slice View handed out before a growth still holds what it held; and the
// file's storage grows geometrically — far fewer reallocations than writes.
func TestWritePastEOFGrowsInPlace(t *testing.T) {
	fs := testFS()
	var want []byte
	var held [][]byte // a View of every chunk, taken right after its write
	var heldWant [][]byte
	grows, last := 0, 0
	for c := 0; c < 400; c++ {
		gap := c % 3 // 0, 1 or 2 bytes left unwritten ahead of the chunk
		chunk := bytes.Repeat([]byte{byte(c%251 + 1)}, 100+c%7)
		off := len(want) + gap
		if err := fs.WriteAt("f", off, chunk); err != nil {
			t.Fatal(err)
		}
		want = append(append(want, make([]byte, gap)...), chunk...)
		fs.mu.Lock()
		if c := cap(fs.files["f"].data); c != last {
			grows, last = grows+1, c
		}
		fs.mu.Unlock()
		if err := fs.View("f", off, len(chunk), func(b []byte) { held = append(held, b) }); err != nil {
			t.Fatal(err)
		}
		heldWant = append(heldWant, chunk)
	}
	got := make([]byte, len(want))
	if err := fs.ReadAt("f", 0, got); err != nil || !bytes.Equal(got, want) || fs.Size("f") != len(want) {
		t.Fatalf("file of %d bytes differs from what was written (%v)", fs.Size("f"), err)
	}
	for c, b := range held {
		if !bytes.Equal(b, heldWant[c]) {
			t.Fatalf("the View of chunk %d changed after later writes", c)
		}
	}
	if grows > 40 {
		t.Errorf("400 writes past EOF reallocated the file %d times", grows)
	}
}

// TestReserveAllocatesOnce: a reservation creates no file — Size, Exists
// and List do not see it, and the first write still draws the create fault
// — and a file then written a chunk at a time up to the reserved size is
// never regrown. Reserving an existing file keeps its bytes.
func TestReserveAllocatesOnce(t *testing.T) {
	fs := testFS()
	const n = 40 << 10
	fs.Reserve("f", n)
	if fs.Exists("f") || fs.Size("f") != -1 || len(fs.List()) != 0 {
		t.Fatal("a reservation created the file")
	}
	fs.InjectFaults(FaultPlan{Seed: 2, MDSTimeoutProb: 1, MaxConsecutive: 1})
	if err := fs.WriteAt("f", 0, []byte{1}); !IsTransient(err) {
		t.Fatalf("first write to a reserved path: err = %v, want the create fault", err)
	}
	if fs.Exists("f") {
		t.Fatal("a timed-out create of a reserved path left a file")
	}
	want := make([]byte, n)
	var first *byte
	for off := 0; off < n; off += 1000 {
		chunk := want[off:min(off+1000, n)]
		for i := range chunk {
			chunk[i] = byte(off/1000 + i)
		}
		if err := fs.WriteAt("f", off, chunk); err != nil {
			t.Fatal(err)
		}
		fs.mu.Lock()
		if d := fs.files["f"].data; first == nil {
			first = &d[:1][0]
		} else if &d[:1][0] != first {
			t.Fatalf("the reserved file moved at offset %d", off)
		}
		fs.mu.Unlock()
	}
	got := make([]byte, n)
	if err := fs.ReadAt("f", 0, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reserved file differs from what was written (%v)", err)
	}
	fs.Reserve("f", 2*n)
	if err := fs.ReadAt("f", 0, got); err != nil || !bytes.Equal(got, want) || fs.Size("f") != n {
		t.Fatalf("reserving an existing file changed it (%v, size %d)", err, fs.Size("f"))
	}
}

func TestListRemoveExists(t *testing.T) {
	fs := testFS()
	fs.WriteAt("b", 0, []byte{1})
	fs.WriteAt("a", 0, []byte{1})
	l := fs.List()
	if len(l) != 2 || l[0] != "a" || l[1] != "b" {
		t.Fatalf("List = %v", l)
	}
	if !fs.Exists("a") {
		t.Error("a should exist")
	}
	fs.Remove("a")
	if fs.Exists("a") {
		t.Error("a should be gone")
	}
}

func TestStripeInheritance(t *testing.T) {
	fs := testFS()
	fs.SetStripe("out/", 4, 1024)
	fs.WriteAt("out/vol.bin", 0, make([]byte, 10))
	fs.WriteAt("in/mesh.bin", 0, make([]byte, 10))
	if f := fs.files["out/vol.bin"]; f.stripeCount != 4 || f.stripeSize != 1024 {
		t.Fatalf("out stripe = %d/%d", f.stripeCount, f.stripeSize)
	}
	if f := fs.files["in/mesh.bin"]; f.stripeCount != 1 {
		t.Fatalf("default stripe = %d", f.stripeCount)
	}
}

func TestStripingSpreadsLoad(t *testing.T) {
	fs := testFS()
	fs.SetStripe("wide/", 0, 1<<10) // all OSTs
	fs.SetStripe("narrow/", 1, 1<<10)
	fs.WriteAt("wide/f", 0, make([]byte, 1))
	fs.WriteAt("narrow/f", 0, make([]byte, 1))
	sz := 1 << 20
	wide := fs.SimulatePhase([]Op{{Path: "wide/f", Bytes: sz, Write: true}})
	narrow := fs.SimulatePhase([]Op{{Path: "narrow/f", Bytes: sz, Write: true}})
	if !(wide.IOTime < narrow.IOTime/4) {
		t.Fatalf("striping gave no speedup: wide %g vs narrow %g", wide.IOTime, narrow.IOTime)
	}
	if wide.Throughput <= narrow.Throughput {
		t.Fatal("wide stripe throughput not higher")
	}
}

func TestMDSContentionDegradesSuperlinearly(t *testing.T) {
	fs := testFS() // MDSConcurrent = 16
	mkOps := func(n int) []Op {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Path: "ckpt/f", Bytes: 0, Open: true}
		}
		return ops
	}
	within := fs.SimulatePhase(mkOps(16))
	over := fs.SimulatePhase(mkOps(64)) // 4x the opens
	// Superlinear: 4x opens with 16x degradation factor -> 64x MDS time.
	ratio := over.MDSTime / within.MDSTime
	if ratio < 16 {
		t.Fatalf("MDS degradation ratio %g, want superlinear (>16)", ratio)
	}
}

// Reader throttling (§IV.E): reading the same volume with opens capped at
// the MDS limit, in several waves, beats opening everything at once.
func TestThrottledOpensBeatUnthrottled(t *testing.T) {
	fs := New(Config{OSTs: 64, OSTBandwidth: 100e6, MDSLatency: 1e-3, MDSConcurrent: 50})
	fs.SetStripe("parts/", 1, 1<<20)
	nFiles := 400
	perFile := 1 << 20
	for i := 0; i < nFiles; i++ {
		fs.WriteAt(pathN(i), 0, make([]byte, 1))
	}
	// Unthrottled: all 400 opens in one phase.
	var all []Op
	for i := 0; i < nFiles; i++ {
		all = append(all, Op{Path: pathN(i), Bytes: perFile, Open: true})
	}
	unthrottled := fs.SimulatePhase(all).Elapsed

	// Throttled: waves of 50.
	var throttled float64
	for w := 0; w < nFiles; w += 50 {
		throttled += fs.SimulatePhase(all[w : w+50]).Elapsed
	}
	if throttled >= unthrottled {
		t.Fatalf("throttling did not help: %g vs %g", throttled, unthrottled)
	}
}

func pathN(i int) string {
	return "parts/mesh." + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
}

func TestSimulatePhaseStripeAccounting(t *testing.T) {
	fs := testFS()
	fs.SetStripe("s/", 4, 100)
	fs.WriteAt("s/f", 0, make([]byte, 1))
	st := fs.SimulatePhase([]Op{{Path: "s/f", Bytes: 400, Off: 0, Write: true}})
	// 400 bytes over 4 stripes of 100 -> 100 bytes per OST.
	if st.MaxOSTLoad != 100 {
		t.Fatalf("MaxOSTLoad = %g, want 100", st.MaxOSTLoad)
	}
	if st.Bytes != 400 {
		t.Fatalf("Bytes = %d", st.Bytes)
	}
}

func TestJaguarConfigSane(t *testing.T) {
	cfg := Jaguar()
	if cfg.OSTs != 670 || cfg.MDSConcurrent != 650 {
		t.Fatalf("Jaguar config = %+v", cfg)
	}
	// Aggregate bandwidth ~ 20 GB/s as the paper measured.
	agg := float64(cfg.OSTs) * cfg.OSTBandwidth
	if agg < 15e9 || agg > 30e9 {
		t.Fatalf("aggregate bandwidth %g implausible vs 20 GB/s", agg)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func TestStripeForDeterministicTieBreak(t *testing.T) {
	// Longest matching prefix wins regardless of registration order, and
	// the resolution never depends on map iteration order: run many
	// freshly built file systems and demand identical answers.
	for trial := 0; trial < 50; trial++ {
		fs := testFS()
		fs.SetStripe("out/", 2, 1<<20)
		fs.SetStripe("out/deep/", 4, 2<<20)
		fs.SetStripe("o", 8, 4<<20)
		if c, s := fs.Stripe("out/deep/file"); c != 4 || s != 2<<20 {
			t.Fatalf("trial %d: out/deep/file -> (%d,%d), want (4,%d)", trial, c, s, 2<<20)
		}
		if c, s := fs.Stripe("out/file"); c != 2 || s != 1<<20 {
			t.Fatalf("trial %d: out/file -> (%d,%d), want (2,%d)", trial, c, s, 1<<20)
		}
		if c, s := fs.Stripe("other"); c != 8 || s != 4<<20 {
			t.Fatalf("trial %d: other -> (%d,%d), want (8,%d)", trial, c, s, 4<<20)
		}
		if c, s := fs.Stripe("elsewhere"); c != 1 || s != 1<<20 {
			t.Fatalf("trial %d: elsewhere -> defaults, got (%d,%d)", trial, c, s)
		}
	}
}

func TestStripeReportsExistingFileGeometry(t *testing.T) {
	fs := testFS()
	fs.SetStripe("d/", 4, 2<<20)
	fs.WriteAt("d/f", 0, []byte{1})
	// Re-striping the directory must not retroactively change the file.
	fs.SetStripe("d/", 8, 1<<20)
	if c, s := fs.Stripe("d/f"); c != 4 || s != 2<<20 {
		t.Fatalf("existing file -> (%d,%d), want creation-time (4,%d)", c, s, 2<<20)
	}
	if c, s := fs.Stripe("d/new"); c != 8 || s != 1<<20 {
		t.Fatalf("new path -> (%d,%d), want current (8,%d)", c, s, 1<<20)
	}
}
