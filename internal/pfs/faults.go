// Transient I/O fault injection — the storage half of the distributed
// chaos harness. A FaultPlan armed on an FS perturbs writes and metadata
// operations with the failure modes week-long Lustre campaigns actually
// see (§III.F motivation):
//
//   - failed write: the OST rejects the request; nothing is persisted and
//     the caller gets a *TransientError (retryable);
//   - short write: only a seeded prefix of the payload lands before the
//     error — a retry that rewrites the full range heals it;
//   - torn write: a seeded prefix lands and the call REPORTS SUCCESS —
//     the silent-corruption case that only end-to-end verification
//     (the checkpoint CRC64 trailer) can catch;
//   - MDS timeout: file creation or rename times out at the metadata
//     server with no side effect (retryable).
//
// Each decision is a pure function of the seed, the operation, the path,
// the offset and that key's call count, so a given plan faults each file
// identically on every run, however goroutines sharing the FS interleave.
package pfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
)

// FaultPlan configures deterministic transient-fault injection. The zero
// value of each probability disables that fault class.
type FaultPlan struct {
	// Seed drives every decision; same seed + same calls on a key = same
	// faults on that key.
	Seed int64

	// WriteFailProb is the per-write probability of a rejected write
	// (nothing persisted, *TransientError returned).
	WriteFailProb float64
	// ShortWriteProb is the per-write probability that only a prefix is
	// persisted before the error.
	ShortWriteProb float64
	// TornWriteProb is the per-write probability that only a prefix is
	// persisted and the write still reports success.
	TornWriteProb float64
	// MDSTimeoutProb is the per-metadata-op (file create, rename)
	// probability of a timeout with no side effect.
	MDSTimeoutProb float64
	// ReadFailProb is the per-read probability of a transient failure
	// with nothing delivered (retryable) — the restart-killing read
	// hiccup of an overloaded MDS/OST.
	ReadFailProb float64

	// MaxConsecutive bounds back-to-back faulted calls on one key — an
	// operation on one path and offset — (default 2), so a bounded retry
	// loop always converges.
	MaxConsecutive int
}

// FaultStats counts injected faults since the plan was armed.
type FaultStats struct {
	FailedWrites uint64
	ShortWrites  uint64
	TornWrites   uint64
	MDSTimeouts  uint64
	FailedReads  uint64
}

// TransientError marks a retryable injected I/O failure. Use IsTransient
// (or errors.As) to classify; RetryPolicy.Do retries exactly these.
type TransientError struct {
	Op   string // "write", "create", "rename"
	Path string
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("pfs: transient %s fault on %s", e.Op, e.Path)
}

// IsTransient reports whether err wraps a *TransientError.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// faultEngine is the per-FS injection state; fs.mu guards it. Every draw is
// a pure function of the seed, the call's key — operation, path, offset —
// and how many calls that key has seen, so the faults one file suffers do
// not depend on what other goroutines do to other files on the same FS.
type faultEngine struct {
	plan  FaultPlan
	paths map[string]*pathRuns
	stats FaultStats
}

// pathRuns is one path's fault state. A file's keys go when it is removed
// or renamed away, leaving one generation count, so a path that is reused
// (a checkpoint's temp file, a retry loop that removes and rewrites) holds
// O(1) state, and the file created there next draws a fresh sequence rather
// than replaying the one that just failed.
type pathRuns struct {
	gen  uint64
	keys map[string]*keyRun // for the file there now
}

// keyRun is one key's state: the Roll arguments of its current call — the
// n-th, n = calls-1 — and its run of faulted calls. A key that has faulted
// MaxConsecutive calls in a row gets one clean call, so a bounded retry
// loop always converges.
type keyRun struct {
	seed   int64
	key    string
	calls  uint64
	consec int
	clean  bool
}

// Draw sites within one call.
const (
	siteOp     byte = iota // the operation's own fault
	siteCreate             // the MDS create a write to a new file pays
	siteLen                // the prefix length of a short or torn write
)

func newFaultEngine(plan FaultPlan) *faultEngine {
	if plan.MaxConsecutive <= 0 {
		plan.MaxConsecutive = 2
	}
	return &faultEngine{plan: plan, paths: map[string]*pathRuns{}}
}

// begin opens the next call on (op, path, off). Caller holds fs.mu.
func (e *faultEngine) begin(op, path string, off int) *keyRun {
	p := e.paths[path]
	if p == nil {
		p = &pathRuns{keys: map[string]*keyRun{}}
		e.paths[path] = p
	}
	key := op + " " + path + "@" + strconv.Itoa(off)
	if p.gen > 0 {
		key += "#" + strconv.FormatUint(p.gen, 10)
	}
	r := p.keys[key]
	if r == nil {
		r = &keyRun{seed: e.plan.Seed, key: key}
		p.keys[key] = r
	}
	r.calls++
	r.clean = r.consec >= e.plan.MaxConsecutive
	return r
}

// forget ends the file at path: its keys go and the path's generation
// moves on. Caller holds fs.mu.
func (e *faultEngine) forget(path string) {
	if e == nil || e.paths[path] == nil {
		return
	}
	p := e.paths[path]
	p.gen++
	p.keys = map[string]*keyRun{}
}

// u is the current call's uniform [0,1) draw at site; 1 (no fault at any
// probability) on a clean call.
func (r *keyRun) u(site byte) float64 {
	if r.clean {
		return 1
	}
	return Roll(r.seed, r.key, site, r.calls-1)
}

// end closes the call and returns faulted: a faulted call extends the
// key's run, any other call ends it.
func (r *keyRun) end(faulted bool) bool {
	if r.consec++; !faulted {
		r.consec = 0
	}
	return faulted
}

// Roll is the seeded uniform [0,1) draw both fault injectors use: FNV-1a
// over (seed, ordinal, site, key) with a splitmix64 finalizer. It is a pure
// function of its arguments, so a key's n-th draw at a site is the same
// whatever other keys were drawn before it.
func Roll(seed int64, key string, site byte, n uint64) float64 {
	var b [17]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], n)
	b[16] = site
	h := fnv.New64a()
	h.Write(b[:])
	h.Write([]byte(key))
	// splitmix64 finalizer: FNV-1a alone leaves the high bits of
	// near-identical inputs correlated.
	x := h.Sum64()
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// InjectFaults arms the file system with a transient-fault plan.
func (fs *FS) InjectFaults(plan FaultPlan) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.faults = newFaultEngine(plan)
}

// ClearFaults disarms fault injection.
func (fs *FS) ClearFaults() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.faults = nil
}

// FaultStats returns cumulative injected-fault counters (zero when no
// plan is armed).
func (fs *FS) FaultStats() FaultStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.faults == nil {
		return FaultStats{}
	}
	return fs.faults.stats
}
