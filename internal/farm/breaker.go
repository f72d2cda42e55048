package farm

import (
	"sync"
	"time"
)

// BreakerState is the classic three-state circuit-breaker lifecycle.
type BreakerState int

const (
	// Closed: requests flow; consecutive failures are counted.
	Closed BreakerState = iota
	// Open: requests are rejected until the cooldown elapses.
	Open
	// HalfOpen: exactly one probe request is admitted; its outcome
	// decides between re-closing and re-opening.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breakerConfig tunes a breaker set; its zero value is production's.
type breakerConfig struct {
	// threshold is the consecutive-failure count that trips Closed→Open
	// (default 3).
	threshold int
	// cooldown is how long an Open breaker rejects before admitting a
	// half-open probe (default 250ms).
	cooldown time.Duration
	// now is the clock; nil means time.Now.
	now func() time.Time
}

func (c breakerConfig) withDefaults() breakerConfig {
	if c.threshold <= 0 {
		c.threshold = 3
	}
	if c.cooldown <= 0 {
		c.cooldown = 250 * time.Millisecond
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Breakers is a per-scenario-class circuit-breaker set: repeated failures
// in one class (e.g. a magnitude band whose jobs keep crashing) trip that
// class open, shedding its work while the other classes keep flowing —
// the failure-isolation half of the farm's robustness story.
type Breakers struct {
	cfg breakerConfig
	mu  sync.Mutex
	m   map[string]*breaker
}

type breaker struct {
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	trips    int
}

// newBreakers creates a breaker set.
func newBreakers(cfg breakerConfig) *Breakers {
	return &Breakers{cfg: cfg.withDefaults(), m: map[string]*breaker{}}
}

func (bs *Breakers) get(class string) *breaker {
	b := bs.m[class]
	if b == nil {
		b = &breaker{}
		bs.m[class] = b
	}
	return b
}

// Allow reports whether a request for the class may proceed. An Open
// breaker past its cooldown transitions to HalfOpen and admits exactly
// one probe; concurrent requests during the probe are rejected.
func (bs *Breakers) Allow(class string) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.get(class)
	switch b.state {
	case Closed:
		return true
	case Open:
		if bs.cfg.now().Sub(b.openedAt) >= bs.cfg.cooldown {
			b.state = HalfOpen
			b.probing = true
			return true
		}
		return false
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// OnSuccess records a success: a half-open probe success re-closes the
// breaker; in Closed it resets the failure streak.
func (bs *Breakers) OnSuccess(class string) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.get(class)
	b.failures = 0
	b.probing = false
	b.state = Closed
}

// OnFailure records a failure and reports whether it tripped the breaker:
// a half-open probe failure re-opens immediately; in Closed the streak
// counts toward the threshold.
func (bs *Breakers) OnFailure(class string) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.get(class)
	b.probing = false
	switch b.state {
	case Closed:
		b.failures++
		if b.failures < bs.cfg.threshold {
			return false
		}
	case Open:
		return false
	}
	b.state = Open
	b.openedAt = bs.cfg.now()
	b.trips++
	return true
}

// Ready reports whether Allow would admit the class now — Closed, Open past
// its cooldown, or HalfOpen with no probe in flight — without taking the
// probe slot or changing state: the serving path's check before it enqueues
// a compute, whose worker's Allow does the probing. An Open class heals only
// through a probe, so one that tripped with nothing queued behind it waits
// for the next miss to bring one.
func (bs *Breakers) Ready(class string) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	switch b := bs.get(class); b.state {
	case Closed:
		return true
	case Open:
		return bs.cfg.now().Sub(b.openedAt) >= bs.cfg.cooldown
	case HalfOpen:
		return !b.probing
	}
	return false
}

// Trips returns the total Closed/HalfOpen→Open transitions across classes.
func (bs *Breakers) Trips() int {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	n := 0
	for _, b := range bs.m {
		n += b.trips
	}
	return n
}

// States snapshots every class's state (for /status).
func (bs *Breakers) States() map[string]string {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	out := make(map[string]string, len(bs.m))
	for c, b := range bs.m {
		out[c] = b.state.String()
	}
	return out
}
