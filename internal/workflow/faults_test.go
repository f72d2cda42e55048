package workflow

// Fault-injected and concurrency regression tests for the transfer/
// registry layer: the destination-write error path of Transfer (which
// used to drop dst.FS.WriteAt's error and count the attempt as a success
// until the checksum read-back happened to catch it), backoff accounting,
// the full-drain semantics of Ingest under partial failure, parallel
// multi-site Ingest under -race, and torn/short-artifact detection by
// VerifyReplica.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/pfs"
)

// faultSite builds a site whose FS injects the given fault plan.
func faultSite(name string, plan pfs.FaultPlan) Site {
	s := newSite(name)
	s.FS.InjectFaults(plan)
	return s
}

// TestTransferDestinationWriteFaultRetried pins the dropped-error fix:
// with the destination rejecting a large fraction of writes, every failed
// write must surface as a counted retry and the transfer must still
// complete and verify. Before the fix, a rejected write left nothing at
// the destination and the read-back aborted the whole transfer with a
// non-retryable "no such file" error.
func TestTransferDestinationWriteFaultRetried(t *testing.T) {
	src := newSite("src")
	paths := seedFiles(src, 12, 1<<10)
	dst := faultSite("dst", pfs.FaultPlan{
		Seed: 11, WriteFailProb: 0.45, MaxConsecutive: 3,
	})
	tr := NewTransferer(Link{BandwidthPerStream: 50e6, MaxStreams: 4}, 5)
	st, err := tr.Transfer(src, dst, paths, 4)
	if err != nil {
		t.Fatalf("transfer under write faults: %v", err)
	}
	if st.Retries == 0 {
		t.Fatal("injected write failures produced no retries")
	}
	if st.Bytes != 12*(1<<10) || !st.Verified {
		t.Fatalf("stats %+v", st)
	}
	stats := dst.FS.FaultStats()
	if stats.FailedWrites == 0 {
		t.Fatal("fault plan injected nothing; test is vacuous")
	}
	// Content must be intact despite the faults.
	buf := make([]byte, 1<<10)
	dst.FS.InjectFaults(pfs.FaultPlan{}) // disarm
	if err := dst.FS.ReadAt(paths[7], 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[3] != byte(7+3) {
		t.Fatal("content corrupted at destination")
	}
}

// TestTransferTornWriteHealed: a torn destination write reports success
// with only a prefix persisted; the end-to-end checksum must catch it and
// the retransfer must heal it.
func TestTransferTornWriteHealed(t *testing.T) {
	src := newSite("src")
	paths := seedFiles(src, 8, 1<<12)
	dst := faultSite("dst", pfs.FaultPlan{
		Seed: 3, TornWriteProb: 0.5, MaxConsecutive: 2,
	})
	tr := NewTransferer(Link{BandwidthPerStream: 50e6, MaxStreams: 2}, 9)
	st, err := tr.Transfer(src, dst, paths, 2)
	if err != nil {
		t.Fatalf("transfer under torn writes: %v", err)
	}
	if dst.FS.FaultStats().TornWrites == 0 {
		t.Fatal("no torn writes injected; test is vacuous")
	}
	if st.Retries == 0 {
		t.Fatal("torn writes were served without checksum-triggered retransfer")
	}
	dst.FS.InjectFaults(pfs.FaultPlan{}) // disarm
	reg := NewRegistry()
	if _, err := reg.Ingest(src, paths, 2, 1e6); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if err := reg.VerifyReplica(dst, p); err != nil {
			t.Fatalf("healed replica %s fails verification: %v", p, err)
		}
	}
}

// TestTransferBackoffAccounted: retries must accrue simulated backoff
// time, growing Elapsed beyond the pure-bandwidth cost.
func TestTransferBackoffAccounted(t *testing.T) {
	src, dst := newSite("a"), newSite("b")
	paths := seedFiles(src, 10, 1<<10)
	link := Link{BandwidthPerStream: 50e6, MaxStreams: 2, FailureRate: 0.4}
	tr := NewTransferer(link, 7)
	st, err := tr.Transfer(src, dst, paths, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries == 0 {
		t.Fatal("no retries at 40% failure rate")
	}
	if st.BackoffSec <= 0 {
		t.Fatal("retries accrued no backoff time")
	}
	if st.BackoffSec < retryBackoff*float64(st.Retries) {
		t.Fatalf("backoff %g s below base*retries (%d retries)", st.BackoffSec, st.Retries)
	}
	// Backoff is part of the simulated elapsed time: the slowest stream
	// carries at least its own share.
	pure := float64(st.Bytes) / link.BandwidthPerStream / 2
	if st.Elapsed <= pure {
		t.Fatalf("elapsed %g does not include backoff (pure transfer ~%g)", st.Elapsed, pure)
	}

	// A clean link accrues none.
	src2, dst2 := newSite("c"), newSite("d")
	p2 := seedFiles(src2, 4, 1<<10)
	st2, err := NewTransferer(Link{BandwidthPerStream: 50e6, MaxStreams: 2}, 1).Transfer(src2, dst2, p2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.BackoffSec != 0 {
		t.Fatalf("clean transfer accrued backoff %g", st2.BackoffSec)
	}
}

// TestIngestDrainsAllResultsOnError: a failing path mid-list must not
// abort the drain — every successfully checksummed file stays registered
// and the first error is still reported.
func TestIngestDrainsAllResultsOnError(t *testing.T) {
	site := newSite("sdsc")
	paths := seedFiles(site, 9, 1<<10)
	withMissing := append(append([]string{}, paths[:4]...), "ghost/missing")
	withMissing = append(withMissing, paths[4:]...)
	reg := NewRegistry()
	_, err := reg.Ingest(site, withMissing, 3, 20e6)
	if err == nil {
		t.Fatal("missing file not reported")
	}
	if reg.Count() != 9 {
		t.Fatalf("registered %d of 9 good files; drain aborted early", reg.Count())
	}
	for _, p := range paths {
		if _, ok := reg.Lookup(p); !ok {
			t.Fatalf("good file %s lost to the failing drain", p)
		}
	}
}

// TestIngestParallelSitesRace: concurrent Ingest calls from multiple
// sites must merge replicas without racing (run under -race).
func TestIngestParallelSitesRace(t *testing.T) {
	const nSites, nFiles = 4, 16
	base := newSite("origin")
	paths := seedFiles(base, nFiles, 512)
	sites := make([]Site, nSites)
	for i := range sites {
		sites[i] = newSite(fmt.Sprintf("site%c", 'A'+i))
		for _, p := range paths {
			buf := make([]byte, 512)
			if err := base.FS.ReadAt(p, 0, buf); err != nil {
				t.Fatal(err)
			}
			if err := sites[i].FS.WriteAt(p, 0, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg := NewRegistry()
	var wg sync.WaitGroup
	errs := make([]error, nSites)
	for i := range sites {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = reg.Ingest(sites[i], paths, 3, 10e6)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("site %d ingest: %v", i, err)
		}
	}
	if reg.Count() != nFiles {
		t.Fatalf("registered %d, want %d", reg.Count(), nFiles)
	}
	for _, p := range paths {
		e, ok := reg.Lookup(p)
		if !ok || len(e.Replicas) != nSites {
			t.Fatalf("entry %s has replicas %v, want all %d sites", p, e.Replicas, nSites)
		}
	}
}

// TestVerifyReplicaTornArtifact: a replica produced by a torn write (the
// silent-corruption class of the pfs injector) must fail VerifyReplica,
// and a short-write replica (error surfaced, partial bytes on disk) must
// fail too.
func TestVerifyReplicaTornArtifact(t *testing.T) {
	clean := newSite("clean")
	paths := seedFiles(clean, 1, 1<<12)
	reg := NewRegistry()
	if _, err := reg.Ingest(clean, paths, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1<<12)
	if err := clean.FS.ReadAt(paths[0], 0, data); err != nil {
		t.Fatal(err)
	}

	// Torn: write reports success, prefix lands.
	torn := faultSite("torn", pfs.FaultPlan{Seed: 2, TornWriteProb: 1, MaxConsecutive: 1})
	if err := torn.FS.WriteAt(paths[0], 0, data); err != nil {
		t.Fatalf("torn write should report success, got %v", err)
	}
	if torn.FS.FaultStats().TornWrites != 1 {
		t.Fatal("torn write not injected")
	}
	torn.FS.InjectFaults(pfs.FaultPlan{}) // disarm
	if torn.FS.Size(paths[0]) >= len(data) {
		t.Fatal("torn write persisted full payload; test is vacuous")
	}
	if err := reg.VerifyReplica(torn, paths[0]); err == nil {
		t.Fatal("torn replica passed verification")
	}

	// Short: write surfaces a transient error, prefix lands anyway.
	short := faultSite("short", pfs.FaultPlan{Seed: 4, ShortWriteProb: 1, MaxConsecutive: 1})
	if err := short.FS.WriteAt(paths[0], 0, data); !pfs.IsTransient(err) {
		t.Fatalf("short write error = %v, want transient", err)
	}
	short.FS.InjectFaults(pfs.FaultPlan{}) // disarm
	if err := reg.VerifyReplica(short, paths[0]); err == nil {
		t.Fatal("short replica passed verification")
	}
}

// TestRegisterSingleFile covers the farm's per-artifact registration path.
func TestRegisterSingleFile(t *testing.T) {
	site := newSite("store")
	paths := seedFiles(site, 2, 256)
	reg := NewRegistry()
	e, err := reg.Register(site, paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if e.Checksum == "" || e.Bytes != 256 || len(e.Replicas) != 1 {
		t.Fatalf("entry %+v", e)
	}
	if err := reg.VerifyReplica(site, paths[0]); err != nil {
		t.Fatal(err)
	}
	// Re-register after content change: checksum must refresh.
	if err := site.FS.WriteAt(paths[0], 0, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	e2, err := reg.Register(site, paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if e2.Checksum == e.Checksum {
		t.Fatal("checksum not refreshed on re-register")
	}
	// A second site replica merges.
	other := newSite("mirror")
	buf := make([]byte, 256)
	if err := site.FS.ReadAt(paths[0], 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := other.FS.WriteAt(paths[0], 0, buf); err != nil {
		t.Fatal(err)
	}
	e3, err := reg.Register(other, paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(e3.Replicas) != 2 {
		t.Fatalf("replicas %v, want 2", e3.Replicas)
	}
	if _, err := reg.Register(site, "no/such/file"); err == nil {
		t.Fatal("missing file registered")
	}
}
