package workflow

// The integrity passes hash each file where it lies: no pass copies a file
// into a buffer of its own, a replica is exactly its source's length, and a
// copy that differs from the catalogue never becomes a replica.

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/pfs"
)

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestIntegrityPassesHashInPlace: VerifyReplica and Ingest of a 16 MiB
// file each allocate under 1 MiB (a whole-file buffer per call before),
// and Transfer allocates the replica's storage only: no source buffer, no
// read-back copy per attempt.
func TestIntegrityPassesHashInPlace(t *testing.T) {
	const size, limit = 16 << 20, 1 << 20
	src, dst := newSite("src"), newSite("dst")
	paths := seedFiles(src, 1, size)
	var err error
	if a := allocated(func() {
		_, err = NewTransferer(Link{BandwidthPerStream: 50e6, MaxStreams: 1}, 1).Transfer(src, dst, paths, 1)
	}); err != nil || a >= size+limit {
		t.Fatalf("Transfer of a %d B file allocated %d B (err %v), want the replica only", size, a, err)
	}
	reg := NewRegistry()
	if a := allocated(func() { _, err = reg.Ingest(src, paths, 4, 1e9) }); err != nil || a >= limit {
		t.Fatalf("Ingest of a %d B file allocated %d B (err %v), want < %d", size, a, err, limit)
	}
	if a := allocated(func() { err = reg.VerifyReplica(dst, paths[0]) }); err != nil || a >= limit {
		t.Fatalf("VerifyReplica of a %d B file allocated %d B (err %v), want < %d", size, a, err, limit)
	}
}

// TestTransferOntoLongerDestination: a transfer over an existing, longer
// file leaves exactly the source's bytes, not the source plus a stale tail;
// re-creating the removed file under an MDS fault is one more retry.
func TestTransferOntoLongerDestination(t *testing.T) {
	for _, mdsFault := range []bool{false, true} {
		src, dst := newSite("src"), newSite("dst")
		paths := seedFiles(src, 1, 100)
		if err := dst.FS.WriteAt(paths[0], 0, bytes.Repeat([]byte{0xEE}, 103)); err != nil {
			t.Fatal(err)
		}
		if mdsFault {
			dst.FS.InjectFaults(pfs.FaultPlan{Seed: 1, MDSTimeoutProb: 1, MaxConsecutive: 1})
		}
		st, err := NewTransferer(Link{BandwidthPerStream: 50e6, MaxStreams: 1}, 1).Transfer(src, dst, paths, 1)
		if err != nil || !st.Verified {
			t.Fatalf("mds fault %v: stats %+v, err %v", mdsFault, st, err)
		}
		if n := dst.FS.Size(paths[0]); n != 100 {
			t.Fatalf("mds fault %v: destination is %d B after a verified transfer of 100 B", mdsFault, n)
		}
		if want := dst.FS.FaultStats().MDSTimeouts; uint64(st.Retries) != want {
			t.Fatalf("mds fault %v: %d retries for %d MDS timeouts", mdsFault, st.Retries, want)
		}
		if mdsFault && st.Retries != 1 {
			t.Fatalf("re-create under an MDS fault: %d retries, want 1", st.Retries)
		}
	}
}

// TestVerifyReplicaRejectsLongerCopy: a replica whose first Bytes bytes
// match but which runs on past them is not the registered object.
func TestVerifyReplicaRejectsLongerCopy(t *testing.T) {
	a, b := newSite("a"), newSite("b")
	paths := seedFiles(a, 1, 100)
	reg := NewRegistry()
	if _, err := reg.Ingest(a, paths, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100)
	if err := a.FS.ReadAt(paths[0], 0, data); err != nil {
		t.Fatal(err)
	}
	if err := b.FS.WriteAt(paths[0], 0, append(data, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := reg.VerifyReplica(b, paths[0]); err == nil {
		t.Fatal("a 103 B copy of a 100 B object verified")
	}
}

// TestIngestRejectsMismatchedCopy: a second site holding different bytes
// under a catalogued path is an error naming the path and the site and is
// not listed as a replica; an identical copy in the same Ingest still
// merges.
func TestIngestRejectsMismatchedCopy(t *testing.T) {
	a, b := newSite("a"), newSite("b")
	paths := seedFiles(a, 2, 100)
	reg := NewRegistry()
	if _, err := reg.Ingest(a, paths, 2, 1e6); err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		data := make([]byte, 100)
		if err := a.FS.ReadAt(p, 0, data); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			data[50] ^= 0xFF
		}
		if err := b.FS.WriteAt(p, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	_, err := reg.Ingest(b, paths, 2, 1e6)
	if err == nil || !strings.Contains(err.Error(), paths[1]) || !strings.Contains(err.Error(), " b ") {
		t.Fatalf("Ingest of a differing copy: err %v, want one naming %s and site b", err, paths[1])
	}
	if e, _ := reg.Lookup(paths[1]); len(e.Replicas) != 1 || e.Replicas[0] != "a" {
		t.Fatalf("differing copy listed: replicas %v", e.Replicas)
	}
	if e, _ := reg.Lookup(paths[0]); len(e.Replicas) != 2 {
		t.Fatalf("identical copy not merged: replicas %v", e.Replicas)
	}
	if err := reg.VerifyReplica(b, paths[0]); err != nil {
		t.Fatal(err)
	}
}

// TestTransferWithinOneFSRejected: Transfer ships from inside a View, which
// holds the source's lock, so a destination on the same file system is an
// error, not a deadlock, and nothing is written.
func TestTransferWithinOneFSRejected(t *testing.T) {
	src := newSite("src")
	paths := seedFiles(src, 1, 100)
	dst := Site{Name: "src-again", FS: src.FS}
	before := src.FS.List()
	if _, err := NewTransferer(Link{BandwidthPerStream: 50e6, MaxStreams: 1}, 1).Transfer(src, dst, paths, 1); err == nil {
		t.Fatal("a transfer within one file system returned no error")
	}
	if after := src.FS.List(); len(after) != len(before) {
		t.Fatalf("files %v after a rejected transfer, %v before", after, before)
	}
}
