package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"reflect"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/grid"
	"repro/internal/pfs"
	"repro/internal/testkit"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	secs := []grid.Section{
		{Name: "vx", F32: []float32{1.5, -2.25, 0, 3e-38, 1e20}},
		{Name: "fault.clock", F64: []float64{math.Pi}},
		{Name: "empty", F64: []float64{}},
	}
	raw := encode(123456789, secs)
	step, tab, vals, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := []entry{{"vx", 4, 5}, {"fault.clock", 8, 1}, {"empty", 8, 0}}; step != 123456789 || !reflect.DeepEqual(tab, want) {
		t.Fatalf("step %d, table %v", step, tab)
	}
	got := []grid.Section{{Name: "vx", F32: make([]float32, 5)}, {Name: "fault.clock", F64: make([]float64, 1)}, {Name: "empty", F64: []float64{}}}
	fill(got, vals)
	if !reflect.DeepEqual(got, secs) {
		t.Fatalf("values %v, want %v", got, secs)
	}
}

// Steps past 2^24 were silently rounded by the v1 float32 header — the
// exact-int64 regression the format change exists for.
func TestLargeStepExact(t *testing.T) {
	const step = 1<<24 + 1 // not representable in float32
	got, _, _, err := decode(encode(step, []grid.Section{{Name: "v", F32: []float32{0}}}))
	if err != nil {
		t.Fatal(err)
	}
	if got != step {
		t.Fatalf("step %d round-tripped as %d", step, got)
	}
}

// resum rewrites the CRC trailer, so a corrupt table reaches the table parser.
func resum(b []byte) []byte {
	body := len(b) - trailerLen
	binary.LittleEndian.PutUint64(b[body:], crc64.Checksum(b[:body], crcTable))
	return b
}

// TestDecodeRejectsCorruption runs every class of damage through decode and
// through Read of the file on the file system: the v2 format, a v3 file
// (v4's layout, but its velocities already damped by the sponge), torn and
// flipped bytes, and section tables — resummed, so only the table is wrong —
// whose names, kinds or counts do not describe the file.
func TestDecodeRejectsCorruption(t *testing.T) {
	d := grid.Dims{NX: 4, NY: 4, NZ: 4}
	secs := fd.NewState(d).Sections()
	clean := encode(10, secs)
	count0 := headerLen + 4 + len(secs[0].Name) + 4 // the first entry's count

	// A v2 file: magic, version 2, flags, reserved, step, dims, 64 values, CRC.
	v2 := make([]byte, 48+4*64+8)
	binary.LittleEndian.PutUint32(v2, magic)
	binary.LittleEndian.PutUint32(v2[4:], 2)
	binary.LittleEndian.PutUint64(v2[16:], 10)
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint64(v2[24+8*i:], 4)
	}

	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bit flip in payload", func(b []byte) []byte { b[len(b)-trailerLen-9] ^= 0x10; return b }, ErrChecksum},
		{"bit flip in header step", func(b []byte) []byte { b[9] ^= 0x01; return b }, ErrChecksum},
		{"bit flip in a section name", func(b []byte) []byte { b[headerLen+5] ^= 0x20; return b }, ErrChecksum},
		{"truncated mid-payload", func(b []byte) []byte { return b[:len(b)-40] }, ErrChecksum},
		{"truncated to sub-header", func(b []byte) []byte { return b[:12] }, ErrTruncated},
		{"header only, no trailer room", func(b []byte) []byte { return b[:headerLen+2] }, ErrTruncated},
		{"wrong magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrNotCheckpoint},
		{"future version", func(b []byte) []byte { b[4] = 99; return b }, ErrVersion},
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"v2 image", func([]byte) []byte { return resum(v2) }, ErrVersion},
		{"v3 image", func(b []byte) []byte { b[4] = 3; return resum(b) }, ErrVersion},
		{"negative step", func(b []byte) []byte { b[15] = 0x80; return resum(b) }, ErrTable},
		{"section count past the file", func(b []byte) []byte { b[19] = 0x7f; return resum(b) }, ErrTruncated},
		{"name length past the file", func(b []byte) []byte { b[headerLen+3] = 0x7f; return resum(b) }, ErrTruncated},
		{"kind neither 4 nor 8", func(b []byte) []byte { b[count0-4] = 2; return resum(b) }, ErrTable},
		{"count past the file", func(b []byte) []byte { b[count0+7] = 0x10; return resum(b) }, ErrTruncated},
		{"count one past the values", func(b []byte) []byte { b[count0]++; return resum(b) }, ErrTruncated},
		{"count short of the values", func(b []byte) []byte { b[count0+1]--; return resum(b) }, ErrTable},
		{"float32 section read as float64", func(b []byte) []byte { b[count0-4] = 8; return resum(b) }, ErrTruncated},
	} {
		raw := tc.mutate(append([]byte(nil), clean...))
		if _, _, _, err := decode(raw); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		fsys := testFS()
		if err := fsys.WriteAt(FileName("c", 0, 10), 0, raw); err != nil {
			t.Fatal(err)
		}
		if err := Read(fsys, "c", 0, 10, secs); !errors.Is(err, tc.want) {
			t.Errorf("%s: Read err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// Legacy v1 files (float32 header, no magic, no CRC) must be rejected
// with ErrNotCheckpoint, not silently mis-parsed.
func TestLegacyV1Rejected(t *testing.T) {
	v1 := testkit.PutFloat32s([]float32{10, 6, 6, 6, 0, 1, 2, 3})
	if _, _, _, err := decode(v1); !errors.Is(err, ErrNotCheckpoint) {
		t.Fatalf("err = %v, want ErrNotCheckpoint", err)
	}
	fsys := testFS()
	if err := fsys.WriteAt(FileName("c", 0, 10), 0, v1); err != nil {
		t.Fatal(err)
	}
	secs := fd.NewState(grid.Dims{NX: 6, NY: 6, NZ: 6}).Sections()
	if err := Read(fsys, "c", 0, 10, secs); !errors.Is(err, ErrNotCheckpoint) {
		t.Fatalf("Read err = %v, want ErrNotCheckpoint", err)
	}
}

// FindLatestValid must pick the newest step where EVERY rank's file
// verifies, skipping truncated and bit-flipped files.
func TestFindLatestValidSkipsDamage(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	fsys := testFS()
	const nranks = 3

	save := func(rank, step int) {
		s := fd.NewState(d)
		s.VX.Set(1, 1, 1, float32(rank*1000+step))
		if _, err := Save(fsys, "c", rank, step, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []int{10, 20, 30} {
		for r := 0; r < nranks; r++ {
			save(r, step)
		}
	}
	if got := FindLatestValid(fsys, "c", nranks); got != 30 {
		t.Fatalf("clean scan = %d, want 30", got)
	}

	// Truncate rank 1's step-30 file: 30 is no longer coordinated.
	path := FileName("c", 1, 30)
	raw := make([]byte, fsys.Size(path))
	if err := fsys.ReadAt(path, 0, raw); err != nil {
		t.Fatal(err)
	}
	fsys.Remove(path)
	if err := fsys.WriteAt(path, 0, raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	if got := FindLatestValid(fsys, "c", nranks); got != 20 {
		t.Fatalf("after truncation = %d, want 20", got)
	}

	// Flip one payload bit in rank 2's step-20 file: fall back to 10.
	path2 := FileName("c", 2, 20)
	raw2 := make([]byte, fsys.Size(path2))
	if err := fsys.ReadAt(path2, 0, raw2); err != nil {
		t.Fatal(err)
	}
	raw2[len(raw2)/2] ^= 0x40
	if err := fsys.WriteAt(path2, 0, raw2); err != nil {
		t.Fatal(err)
	}
	if got := FindLatestValid(fsys, "c", nranks); got != 10 {
		t.Fatalf("after bit flip = %d, want 10", got)
	}

	// A step missing one rank entirely never counts as coordinated.
	save(0, 40)
	save(1, 40)
	if got := FindLatestValid(fsys, "c", nranks); got != 10 {
		t.Fatalf("partial step counted: got %d, want 10", got)
	}
	if got := FindLatestValid(fsys, "empty", nranks); got != -1 {
		t.Fatalf("empty dir = %d, want -1", got)
	}
}

// A .tmp file left by a crashed writer must never be picked up.
func TestFindLatestValidIgnoresTempFiles(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	fsys := testFS()
	s := fd.NewState(d)
	if _, err := Save(fsys, "c", 0, 10, s, nil); err != nil {
		t.Fatal(err)
	}
	// Orphaned in-flight temp for a newer step.
	if err := fsys.WriteAt(FileName("c", 0, 50)+".tmp", 0, encode(50, s.Sections())); err != nil {
		t.Fatal(err)
	}
	if got := FindLatestValid(fsys, "c", 1); got != 10 {
		t.Fatalf("got %d, want 10 (tmp file must not count)", got)
	}
}

// Saves through a faulty PFS must either commit a CRC-valid file or be
// detectable — torn writes land but fail validation.
func TestSaveUnderPFSFaults(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	fsys := testFS()
	fsys.InjectFaults(pfs.FaultPlan{
		Seed: 31, WriteFailProb: 0.2, ShortWriteProb: 0.1, TornWriteProb: 0.1, MDSTimeoutProb: 0.1,
	})
	s := fd.NewState(d)
	s.VZ.Set(3, 3, 3, 7)

	valid := 0
	for step := 0; step < 40; step++ {
		if _, err := Save(fsys, "c", 0, step, s, nil); err != nil {
			continue // retry budget exhausted: no commit, fine
		}
		s2 := fd.NewState(d)
		err := Load(fsys, "c", 0, step, s2, nil)
		if err == nil {
			valid++
			if s2.VZ.At(3, 3, 3) != 7 {
				t.Fatalf("step %d: loaded wrong data", step)
			}
		}
	}
	if valid == 0 {
		t.Fatal("no checkpoint survived the fault plan")
	}
	st := fsys.FaultStats()
	if st.FailedWrites+st.ShortWrites+st.TornWrites+st.MDSTimeouts == 0 {
		t.Fatal("fault plan never fired")
	}
}
