package farm

import (
	"testing"
	"time"
)

// State returns the class's current state (Open past cooldown still
// reports Open until a request arrives to probe).
func (bs *Breakers) State(class string) BreakerState {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.get(class).state
}

// fakeClock is an injectable breaker clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreakers(threshold int, cooldown time.Duration) (*Breakers, *fakeClock) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	return newBreakers(breakerConfig{
		threshold: threshold, cooldown: cooldown, now: clk.now,
	}), clk
}

func TestBreakerTripAndRecover(t *testing.T) {
	bs, clk := newTestBreakers(3, time.Second)
	const class = "M7+"
	for i := 0; i < 3; i++ {
		if !bs.Allow(class) {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		if tripped := bs.OnFailure(class); tripped != (i == 2) {
			t.Fatalf("failure %d reported trip %v", i, tripped)
		}
	}
	if bs.State(class) != Open {
		t.Fatalf("state after threshold failures = %v", bs.State(class))
	}
	if bs.Allow(class) {
		t.Fatal("open breaker admitted inside cooldown")
	}

	// Cooldown elapses: exactly one probe is admitted.
	clk.advance(time.Second)
	if !bs.Allow(class) {
		t.Fatal("half-open probe rejected")
	}
	if bs.Allow(class) {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe succeeds: breaker re-closes and the streak resets.
	bs.OnSuccess(class)
	if bs.State(class) != Closed || !bs.Allow(class) {
		t.Fatal("probe success did not re-close")
	}
	bs.OnFailure(class)
	bs.OnSuccess(class)
	bs.OnFailure(class)
	bs.OnFailure(class)
	if bs.State(class) != Closed {
		t.Fatal("streak did not reset on success")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	bs, clk := newTestBreakers(2, time.Second)
	const class = "M6-7"
	bs.OnFailure(class)
	bs.OnFailure(class)
	clk.advance(time.Second)
	if !bs.Allow(class) {
		t.Fatal("probe rejected")
	}
	if !bs.OnFailure(class) || bs.State(class) != Open {
		t.Fatal("probe failure did not re-open")
	}
	// Second cooldown must be honored afresh.
	if bs.Allow(class) {
		t.Fatal("re-opened breaker admitted inside new cooldown")
	}
	clk.advance(time.Second)
	if !bs.Allow(class) {
		t.Fatal("second probe rejected after new cooldown")
	}
}

// TestBreakerClassIsolation: one class tripping must not affect others —
// the farm's failure-isolation contract.
func TestBreakerClassIsolation(t *testing.T) {
	bs, _ := newTestBreakers(2, time.Minute)
	bs.OnFailure("M7+")
	bs.OnFailure("M7+")
	if bs.State("M7+") != Open {
		t.Fatal("M7+ not open")
	}
	for _, c := range []string{"M<6", "M6-7"} {
		if !bs.Allow(c) || bs.State(c) != Closed {
			t.Fatalf("class %s affected by M7+ trip", c)
		}
	}
	if bs.Ready("M7+") {
		t.Fatal("Ready true for open class")
	}
	if !bs.Ready("M<6") {
		t.Fatal("Ready false for healthy class")
	}
	states := bs.States()
	if states["M7+"] != "open" || states["M<6"] != "closed" {
		t.Fatalf("states %v", states)
	}
}

// TestBreakerReadyDoesNotConsumesProbe: the serving path's read-only
// check must not eat the half-open probe slot.
func TestBreakerReadyDoesNotConsumeProbe(t *testing.T) {
	bs, clk := newTestBreakers(1, time.Second)
	bs.OnFailure("x")
	clk.advance(time.Second)
	bs.Ready("x")
	if !bs.Allow("x") {
		t.Fatal("probe slot consumed by Ready")
	}
}
