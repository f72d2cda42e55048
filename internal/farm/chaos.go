package farm

import (
	"sync"
	"time"

	"repro/internal/pfs"
)

// ChaosPlan configures the farm-level fault injector: worker crashes
// (panic mid-job), hung jobs (compute stalls past the deadline) and
// artifact corruption (bit rot after a successful store). It composes
// with the pfs fault plans (storage faults) and the in-world mpi chaos
// plans (rank crashes) for the full service-level storm.
type ChaosPlan struct {
	Seed int64
	// CrashProb panics the worker goroutine mid-job.
	CrashProb float64
	// HangProb stalls the attempt for HangDur (set > the job deadline to
	// exercise the deadline path).
	HangProb float64
	// HangDur is the stall length (default 50ms).
	HangDur time.Duration
	// CorruptProb garbles the stored artifact right after a successful
	// Put, exercising the read-verify/re-queue path.
	CorruptProb float64
	// MaxFaultsPerJob caps injected faults per scenario key so every job
	// eventually converges (default 3, mirroring pfs.MaxConsecutive).
	MaxFaultsPerJob int
}

// ChaosStats counts injected faults.
type ChaosStats struct {
	Crashes     int `json:"crashes"`
	Hangs       int `json:"hangs"`
	Corruptions int `json:"corruptions"`
}

// chaosEngine applies a ChaosPlan with a per-job fault budget. Every roll
// is pfs.Roll of (Seed, key, site, that key's roll ordinal at the site),
// so the faults a scenario suffers do not depend on how worker goroutines
// interleave: same seed, same faults, for any worker count.
type chaosEngine struct {
	mu   sync.Mutex
	plan ChaosPlan
	// faults is each key's injected-fault sequence; its length is the
	// key's spent budget.
	faults map[string][]chaosAction
	// rolls counts each key's rolls per site (the ordinal the next roll
	// hashes).
	rolls map[string][2]uint64
	stats ChaosStats
}

func newChaosEngine(plan ChaosPlan) *chaosEngine {
	if plan.HangDur <= 0 {
		plan.HangDur = 50 * time.Millisecond
	}
	if plan.MaxFaultsPerJob <= 0 {
		plan.MaxFaultsPerJob = 3
	}
	return &chaosEngine{
		plan:   plan,
		faults: map[string][]chaosAction{},
		rolls:  map[string][2]uint64{},
	}
}

type chaosAction int

const (
	chaosNone chaosAction = iota
	chaosCrash
	chaosHang
	chaosCorrupt
)

// Roll sites.
const (
	sitePreAttempt = iota
	sitePostStore
)

// roll returns the key's next uniform [0,1) draw at site, or ok=false
// when the key's fault budget is spent. Callers hold c.mu.
func (c *chaosEngine) roll(key string, site int) (r float64, ok bool) {
	if len(c.faults[key]) >= c.plan.MaxFaultsPerJob {
		return 0, false
	}
	n := c.rolls[key]
	r = pfs.Roll(c.plan.Seed, key, byte(site), n[site])
	n[site]++
	c.rolls[key] = n
	return r, true
}

// preAttempt rolls for a crash or hang at the start of a job attempt.
func (c *chaosEngine) preAttempt(key string) (chaosAction, time.Duration) {
	if c == nil {
		return chaosNone, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.roll(key, sitePreAttempt)
	switch {
	case !ok:
	case r < c.plan.CrashProb:
		c.faults[key] = append(c.faults[key], chaosCrash)
		c.stats.Crashes++
		return chaosCrash, 0
	case r < c.plan.CrashProb+c.plan.HangProb:
		c.faults[key] = append(c.faults[key], chaosHang)
		c.stats.Hangs++
		return chaosHang, c.plan.HangDur
	}
	return chaosNone, 0
}

// postStore rolls for artifact corruption after a successful Put.
func (c *chaosEngine) postStore(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.roll(key, sitePostStore); ok && r < c.plan.CorruptProb {
		c.faults[key] = append(c.faults[key], chaosCorrupt)
		c.stats.Corruptions++
		return true
	}
	return false
}

// Stats snapshots the injected-fault counts.
func (c *chaosEngine) Stats() ChaosStats {
	if c == nil {
		return ChaosStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
