package telemetry

import (
	"sync"
	"testing"
)

func TestNamedCounters(t *testing.T) {
	r := NewRecorder(0, 0)
	r.AddCount("farm.retries", 2)
	r.AddCount("farm.retries", 3)
	r.MaxCount("farm.queue_depth_hw", 4)
	r.MaxCount("farm.queue_depth_hw", 2) // lower: must not regress
	r.MaxCount("farm.queue_depth_hw", 9)
	if got := r.Count("farm.retries"); got != 5 {
		t.Fatalf("retries = %d, want 5", got)
	}
	if got := r.Count("farm.queue_depth_hw"); got != 9 {
		t.Fatalf("queue high-water = %d, want 9", got)
	}
	if got := r.Count("never-touched"); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
}

func TestNamedCountersNilRecorder(t *testing.T) {
	var r *Recorder
	r.AddCount("x", 1) // must not panic
	r.MaxCount("x", 1)
	if r.Count("x") != 0 {
		t.Fatal("nil recorder counted")
	}
}

func TestNamedCountersConcurrent(t *testing.T) {
	r := NewRecorder(0, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.AddCount("hits", 1)
				r.MaxCount("hw", int64(w*100+i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Count("hits"); got != 800 {
		t.Fatalf("hits = %d, want 800", got)
	}
	if got := r.Count("hw"); got != 799 {
		t.Fatalf("hw = %d, want 799", got)
	}
}

func TestFarmPhasesNamed(t *testing.T) {
	for p, want := range map[Phase]string{Job: "job", Serve: "serve"} {
		if got := p.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", p, got, want)
		}
	}
}
