package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFailedWriteLeavesNothing(t *testing.T) {
	fs := New(Jaguar())
	fs.InjectFaults(FaultPlan{Seed: 1, WriteFailProb: 1, MaxConsecutive: 1 << 30})
	err := fs.WriteAt("f", 0, []byte{1, 2, 3})
	if !IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	if fs.Exists("f") {
		t.Fatal("failed write must not create the file")
	}
	if st := fs.FaultStats(); st.FailedWrites != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShortWritePersistsPrefixAndErrors(t *testing.T) {
	fs := New(Jaguar())
	fs.InjectFaults(FaultPlan{Seed: 5, ShortWriteProb: 1, MaxConsecutive: 1 << 30})
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	err := fs.WriteAt("f", 0, data)
	if !IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	n := fs.Size("f")
	if n <= 0 || n >= len(data) {
		t.Fatalf("short write persisted %d of %d bytes, want a strict prefix", n, len(data))
	}
	got := make([]byte, n)
	if err := fs.ReadAt("f", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:n]) {
		t.Fatalf("prefix mismatch: %v vs %v", got, data[:n])
	}
}

func TestTornWriteReportsSuccess(t *testing.T) {
	fs := New(Jaguar())
	fs.InjectFaults(FaultPlan{Seed: 9, TornWriteProb: 1, MaxConsecutive: 1 << 30})
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := fs.WriteAt("f", 0, data); err != nil {
		t.Fatalf("torn write must report success, got %v", err)
	}
	if n := fs.Size("f"); n >= len(data) {
		t.Fatalf("torn write persisted all %d bytes", n)
	}
	if st := fs.FaultStats(); st.TornWrites != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMDSTimeoutOnCreateAndRename(t *testing.T) {
	fs := New(Jaguar())
	if err := fs.WriteAt("existing", 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	fs.InjectFaults(FaultPlan{Seed: 2, MDSTimeoutProb: 1, MaxConsecutive: 1 << 30})
	if err := fs.WriteAt("newfile", 0, []byte{1}); !IsTransient(err) {
		t.Fatalf("create: err = %v, want transient MDS timeout", err)
	}
	if fs.Exists("newfile") {
		t.Fatal("timed-out create must have no side effect")
	}
	if err := fs.Rename("existing", "moved"); !IsTransient(err) {
		t.Fatalf("rename: err = %v, want transient MDS timeout", err)
	}
	if !fs.Exists("existing") || fs.Exists("moved") {
		t.Fatal("timed-out rename must have no side effect")
	}
}

func TestRenameCommitsAtomically(t *testing.T) {
	fs := New(Jaguar())
	if err := fs.WriteAt("dir/f.tmp", 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("dir/f", 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("dir/f.tmp", "dir/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("dir/f.tmp") {
		t.Fatal("temp file survived rename")
	}
	got := make([]byte, 3)
	if err := fs.ReadAt("dir/f", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("content = %v after rename", got)
	}
	if err := fs.Rename("missing", "x"); err == nil || IsTransient(err) {
		t.Fatalf("rename of missing file: err = %v, want permanent error", err)
	}
}

func TestMaxConsecutiveBoundsFaultRuns(t *testing.T) {
	fs := New(Jaguar())
	fs.InjectFaults(FaultPlan{Seed: 3, WriteFailProb: 1, MaxConsecutive: 2})
	fails := 0
	for i := 0; i < 3; i++ {
		if err := fs.WriteAt("f", 0, []byte{1, 2}); err != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("got %d failures in 3 writes, want exactly 2 (bound forces 3rd clean)", fails)
	}
}

func TestRetryHealsTransientFaults(t *testing.T) {
	fs := New(Jaguar())
	fs.InjectFaults(FaultPlan{Seed: 4, WriteFailProb: 0.6, ShortWriteProb: 0.3, MaxConsecutive: 2})
	var slept []time.Duration
	pol := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, Sleep: func(d time.Duration) { slept = append(slept, d) }}
	data := []byte{10, 20, 30, 40}
	for i := 0; i < 50; i++ {
		if err := pol.Do(func() error { return fs.WriteAt("f", 0, data) }); err != nil {
			t.Fatalf("write %d not healed by retry: %v", i, err)
		}
	}
	got := make([]byte, len(data))
	if err := fs.ReadAt("f", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("content = %v, want %v", got, data)
	}
	if len(slept) == 0 {
		t.Fatal("no retries happened at 90% fault probability")
	}
	if st := fs.FaultStats(); st.FailedWrites+st.ShortWrites == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryGivesUpBounded(t *testing.T) {
	calls := 0
	pol := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Nanosecond, Sleep: func(time.Duration) {}}
	err := pol.Do(func() error { calls++; return &TransientError{Op: "write", Path: "f"} })
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if err == nil || !IsTransient(err) {
		t.Fatalf("err = %v, want wrapped transient", err)
	}
}

func TestRetryPassesThroughPermanentErrors(t *testing.T) {
	perm := errors.New("disk on fire")
	calls := 0
	err := DefaultRetry().Do(func() error { calls++; return perm })
	if calls != 1 || !errors.Is(err, perm) {
		t.Fatalf("calls=%d err=%v, want immediate pass-through", calls, err)
	}
}

func TestFaultsDeterministic(t *testing.T) {
	run := func() FaultStats {
		fs := New(Jaguar())
		fs.InjectFaults(FaultPlan{Seed: 77, WriteFailProb: 0.3, ShortWriteProb: 0.2, TornWriteProb: 0.1, MDSTimeoutProb: 0.1})
		for i := 0; i < 100; i++ {
			fs.WriteAt("f", i, []byte{1, 2, 3, 4})
		}
		return fs.FaultStats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different faults:\n a=%+v\n b=%+v", a, b)
	}
	if a.FailedWrites == 0 || a.ShortWrites == 0 || a.TornWrites == 0 {
		t.Fatalf("expected all write fault classes to fire: %+v", a)
	}
}

// TestConcurrentOpensUnderRace drives SimulatePhase and data-plane
// writes from many goroutines at once — the MDS-degradation model must
// be safe under concurrent opens (run with -race).
func TestConcurrentOpensUnderRace(t *testing.T) {
	fs := New(Config{OSTs: 8, OSTBandwidth: 1e6, MDSLatency: 1e-3, MDSConcurrent: 4})
	fs.InjectFaults(FaultPlan{Seed: 8, WriteFailProb: 0.2, MDSTimeoutProb: 0.1})
	const workers = 16
	var wg sync.WaitGroup
	elapsed := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pol := RetryPolicy{MaxAttempts: 8, BaseDelay: time.Nanosecond, Sleep: func(time.Duration) {}}
			for i := 0; i < 20; i++ {
				path := "dir/file" + string(rune('a'+w))
				if err := pol.Do(func() error { return fs.WriteAt(path, i*4, []byte{1, 2, 3, 4}) }); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				st := fs.SimulatePhase([]Op{{Path: path, Bytes: 4, Off: i * 4, Write: true, Open: true}})
				elapsed[w] += st.Elapsed
			}
		}(w)
	}
	wg.Wait()
	for w, e := range elapsed {
		if e <= 0 {
			t.Fatalf("worker %d accrued no virtual time", w)
		}
	}
}

// TestStripePrefixEdgeCases pins the longest-prefix-match resolution of
// directory stripe settings, including nested prefixes, the empty (root)
// prefix, and a prefix longer than the path.
func TestStripePrefixEdgeCases(t *testing.T) {
	fs := New(Config{OSTs: 64, OSTBandwidth: 1e6, MDSLatency: 1e-3, MDSConcurrent: 4})
	fs.SetStripe("", 2, 1<<10)          // root default
	fs.SetStripe("out/", 4, 1<<10)      // mid prefix
	fs.SetStripe("out/ckpt/", 8, 1<<10) // nested, longer prefix wins
	fs.SetStripe("out/ckpt/deep/very/long/prefix/", 16, 1<<10)

	cases := []struct {
		path  string
		count int
	}{
		{"misc", 2},        // only root matches
		{"out/x", 4},       // mid prefix
		{"out/ckpt/r0", 8}, // nested beats mid
		{"out/ckptX", 4},   // "out/ckpt/" is NOT a prefix of this
		{"out/", 4},        // path exactly equals the prefix
		{"ou", 2},          // prefix longer than path cannot match
		{"out/ckpt/deep/very/long/prefix/f", 16},
	}
	for _, tc := range cases {
		fs.WriteAt(tc.path, 0, []byte{1})
		fs.mu.Lock()
		got := fs.files[tc.path].stripeCount
		fs.mu.Unlock()
		if got != tc.count {
			t.Errorf("%s: stripeCount = %d, want %d", tc.path, got, tc.count)
		}
	}
}

// TestStripeZeroAndOversizeCountClamps pins the "count <= 0 means all
// OSTs" rule and the clamp of counts beyond the OST pool.
func TestStripeZeroAndOversizeCountClamps(t *testing.T) {
	fs := New(Config{OSTs: 16, OSTBandwidth: 1e6, MDSLatency: 1e-3, MDSConcurrent: 4})
	fs.SetStripe("all/", 0, 0)
	fs.SetStripe("big/", 999, 1<<20)
	for _, path := range []string{"all/f", "big/f"} {
		fs.WriteAt(path, 0, []byte{1})
		fs.mu.Lock()
		got := fs.files[path].stripeCount
		fs.mu.Unlock()
		if got != 16 {
			t.Errorf("%s: stripeCount = %d, want clamp to 16 OSTs", path, got)
		}
	}
}

func TestReadFaultTransientAndRetryable(t *testing.T) {
	fs := New(Jaguar())
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := fs.WriteAt("f", 0, data); err != nil {
		t.Fatal(err)
	}
	fs.InjectFaults(FaultPlan{Seed: 3, ReadFailProb: 1, MaxConsecutive: 1})
	buf := make([]byte, len(data))
	err := fs.ReadAt("f", 0, buf)
	if !IsTransient(err) {
		t.Fatalf("err = %v, want transient read fault", err)
	}
	if st := fs.FaultStats(); st.FailedReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// MaxConsecutive=1 guarantees the immediate retry succeeds, so the
	// default retry policy heals the fault.
	p := DefaultRetry()
	p.Sleep = func(time.Duration) {}
	if err := p.Do(func() error { return fs.ReadAt("f", 0, buf) }); err != nil {
		t.Fatalf("retry did not heal read fault: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read %v, want %v", buf, data)
	}
}

func TestReadFaultNeverFiresDisarmed(t *testing.T) {
	// A zero ReadFailProb must not consume randomness, so write-fault
	// sequences are identical with and without the read class configured.
	trace := func(plan FaultPlan) []bool {
		fs := New(Jaguar())
		fs.InjectFaults(plan)
		var outcome []bool
		buf := make([]byte, 4)
		for i := 0; i < 64; i++ {
			err := fs.WriteAt("f", 0, []byte{1, 2, 3, 4})
			outcome = append(outcome, err == nil)
			fs.ReadAt("f", 0, buf)
		}
		return outcome
	}
	a := trace(FaultPlan{Seed: 11, WriteFailProb: 0.3})
	b := trace(FaultPlan{Seed: 11, WriteFailProb: 0.3, ReadFailProb: 0})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("write-fault trace diverged at op %d", i)
		}
	}
}

// TestViewDrawsLikeReadAt: View is ReadAt without the copy, so under one
// FaultPlan seed a sequence of Views and the same sequence of ReadAts fail
// on the same calls and leave equal FaultStats — one read draw per call,
// interleaved here with writes that draw from the same stream.
func TestViewDrawsLikeReadAt(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	trace := func(view bool) ([]bool, FaultStats) {
		fs := New(Jaguar())
		if err := fs.WriteAt("f", 0, data); err != nil {
			t.Fatal(err)
		}
		fs.InjectFaults(FaultPlan{Seed: 21, ReadFailProb: 0.4, WriteFailProb: 0.2})
		var outcome []bool
		buf := make([]byte, 4)
		for i := 0; i < 200; i++ {
			off := i % 5
			var got []byte
			var err error
			if view {
				err = fs.View("f", off, len(buf), func(b []byte) {
					if cap(b) != len(buf) {
						t.Errorf("View handed cap %d for %d bytes", cap(b), len(buf))
					}
					got = bytes.Clone(b)
				})
			} else if err = fs.ReadAt("f", off, buf); err == nil {
				got = bytes.Clone(buf)
			}
			if err == nil && !bytes.Equal(got, data[off:off+len(buf)]) {
				t.Fatalf("call %d read %v, want %v", i, got, data[off:off+len(buf)])
			}
			if err != nil && !IsTransient(err) {
				t.Fatalf("call %d: %v", i, err)
			}
			outcome = append(outcome, err == nil)
			fs.WriteAt("f", 0, data) // a failed write persists nothing
		}
		return outcome, fs.FaultStats()
	}
	viewOK, viewStats := trace(true)
	readOK, readStats := trace(false)
	if viewStats != readStats {
		t.Fatalf("FaultStats differ: View %+v, ReadAt %+v", viewStats, readStats)
	}
	for i := range readOK {
		if viewOK[i] != readOK[i] {
			t.Fatalf("call %d: View ok=%v, ReadAt ok=%v", i, viewOK[i], readOK[i])
		}
	}
	if readStats.FailedReads == 0 || readStats.FailedWrites == 0 {
		t.Fatalf("stats = %+v: the plan injected too little to compare", readStats)
	}
}

// TestViewErrorsLikeReadAt: a missing file and a range past EOF give
// ReadAt's errors, and fn is not called.
func TestViewErrorsLikeReadAt(t *testing.T) {
	fs := New(Jaguar())
	if err := fs.WriteAt("f", 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path   string
		off, n int
	}{{"missing", 0, 1}, {"f", 1, 3}} {
		called := false
		viewErr := fs.View(c.path, c.off, c.n, func([]byte) { called = true })
		readErr := fs.ReadAt(c.path, c.off, make([]byte, c.n))
		if viewErr == nil || readErr == nil || viewErr.Error() != readErr.Error() {
			t.Errorf("%s [%d,+%d): View %v, ReadAt %v", c.path, c.off, c.n, viewErr, readErr)
		}
		if called {
			t.Errorf("%s [%d,+%d): fn called on a failed View", c.path, c.off, c.n)
		}
	}
}

// TestViewConcurrentWithWrites: Views of a file other goroutines keep
// rewriting see whole writes only, since View holds the FS mutex while fn
// runs (run with -race).
func TestViewConcurrentWithWrites(t *testing.T) {
	fs := New(Jaguar())
	const n = 4096
	if err := fs.WriteAt("f", 0, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fill := bytes.Repeat([]byte{byte(w)}, n)
			for i := 0; i < 50; i++ {
				if err := fs.WriteAt("f", 0, fill); err != nil {
					t.Error(err)
					return
				}
				if err := fs.View("f", 0, n, func(b []byte) {
					for _, v := range b {
						if v != b[0] {
							t.Errorf("View saw a mix of writes")
							return
						}
					}
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFaultsPerFileIgnoreInterleaving: goroutines sharing one FS, each
// writing and reading its own file, see the faults each file would see on
// an FS of its own — at any GOMAXPROCS, on every repeat.
func TestFaultsPerFileIgnoreInterleaving(t *testing.T) {
	plan := FaultPlan{Seed: 7, WriteFailProb: 0.3, ShortWriteProb: 0.1, TornWriteProb: 0.1, MDSTimeoutProb: 0.2, ReadFailProb: 0.3}
	const files, calls = 4, 40
	trace := func(fs *FS, f int) string {
		path := "out/f" + string(rune('a'+f))
		var b strings.Builder
		buf := make([]byte, 4)
		for i := 0; i < calls; i++ {
			off := 4 * (i % 5)
			err := fs.WriteAt(path, off, []byte{1, 2, 3, byte(i)})
			fmt.Fprintf(&b, "w%d:%v/%d ", i, err == nil, fs.Size(path))
			err = fs.ReadAt(path, 0, buf)
			fmt.Fprintf(&b, "r%d:%v ", i, err == nil)
		}
		return b.String()
	}
	want := make([]string, files)
	for f := range want {
		fs := New(Jaguar())
		fs.InjectFaults(plan)
		want[f] = trace(fs, f)
	}
	if want[0] == want[1] {
		t.Fatal("two files drew the same faults: the draws ignore the path")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 5; rep++ {
			fs := New(Jaguar())
			fs.InjectFaults(plan)
			got := make([]string, files)
			var wg sync.WaitGroup
			for f := range got {
				wg.Add(1)
				go func(f int) {
					defer wg.Done()
					got[f] = trace(fs, f)
				}(f)
			}
			wg.Wait()
			for f := range got {
				if got[f] != want[f] {
					t.Fatalf("GOMAXPROCS=%d repeat %d file %d:\n got %s\nwant %s", procs, rep, f, got[f], want[f])
				}
			}
		}
	}
}

// TestFaultStateCollapsesWithFile: a file's per-key call counts go with
// the file. A long-lived faulted FS that rotates files (checkpoint
// write-temp-then-rename, then remove) keeps one generation count per path,
// not one run per offset ever touched; each generation draws a fresh
// sequence, so a retry loop that removes and rewrites does not replay the
// faults that just failed it; and the whole history is seeded.
func TestFaultStateCollapsesWithFile(t *testing.T) {
	rotate := func() string {
		fs := New(Jaguar())
		fs.InjectFaults(FaultPlan{Seed: 3, WriteFailProb: 0.3, MDSTimeoutProb: 0.3, ReadFailProb: 0.3})
		retry := DefaultRetry()
		retry.Sleep = func(time.Duration) {}
		must := func(op func() error) {
			t.Helper()
			if err := retry.Do(op); err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		for gen := 0; gen < 50; gen++ {
			for i := 0; i < 8; i++ {
				fmt.Fprintf(&b, "%v", fs.WriteAt("ckpt.tmp", 4*i, []byte{1, 2, 3, 4}) == nil)
			}
			must(func() error { return fs.WriteAt("ckpt.tmp", 0, make([]byte, 32)) })
			must(func() error { return fs.Rename("ckpt.tmp", "ckpt") })
			must(func() error { return fs.ReadAt("ckpt", 0, make([]byte, 32)) })
			fs.Remove("ckpt")
			b.WriteByte('\n')
		}
		if n := len(fs.faults.paths); n != 2 {
			t.Fatalf("fault state on %d paths, want 2 (ckpt.tmp, ckpt)", n)
		}
		for path, p := range fs.faults.paths {
			if len(p.keys) != 0 || p.gen != 50 {
				t.Fatalf("%s: %d keys at generation %d after 50 rotations, want none at 50", path, len(p.keys), p.gen)
			}
		}
		return b.String()
	}
	first := rotate()
	if gens := strings.Split(first, "\n"); gens[0] == gens[1] && gens[1] == gens[2] {
		t.Fatalf("generations replay one fault sequence: %q", gens[:3])
	}
	if again := rotate(); again != first {
		t.Fatal("same seed, same calls, different faults")
	}
}
