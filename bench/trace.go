package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer.
type span struct {
	Name   string
	ID     string // shared by every span of one run, scenario or query
	Parent int    // index into tracer.spans, -1 for a root
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the traced pass ends. A nil tracer is
// tracing off: begin and end do nothing and read no clock.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(parent int, id, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: time.Since(t.epoch), End: -1})
	return len(t.spans) - 1
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(h int) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[h]
	s.End = time.Since(t.epoch)
	return (s.End - s.Start).Seconds()
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its direct children cover (children may overlap one another, so coverage
// is the union of their intervals).
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			c := t.spans[k]
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// printSelfTimes lists where the traced pass spent its own time, largest
// first.
func (t *tracer) printSelfTimes(top int) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Printf("self time by span name (span minus what its children cover), top %d of %d names, %d spans:\n",
		min(top, len(names)), len(names), len(t.spans))
	for _, n := range names[:min(top, len(names))] {
		fmt.Printf("  %-34s %10.4f s\n", n, self[n].Seconds())
	}
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto). Spans sharing an ID share a track.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		tid, ok := tids[s.ID]
		if !ok {
			tid = len(tids) + 1
			tids[s.ID] = tid
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "span": i, "parent": s.Parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}
