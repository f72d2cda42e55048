package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workloadJS `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type workloadJS struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables in
// spec.go. On a mismatch the log carries the document the tables describe.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workloadJS{w.name, w.why})
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		doc, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from the tables in spec.go, which describe:\n%s", doc)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestSmokeSuite runs all five workloads and the traced pass at smoke scale
// and checks that exactly the metrics BENCHMARK.json names come out, once,
// well-formed and finite. It asserts nothing about wall-clock time; its
// purpose is to keep the benchmark compiling and running against the APIs
// it calls.
func TestSmokeSuite(t *testing.T) {
	o := options{seed: 1, seconds: 0.001, scale: scales["smoke"], traceOut: filepath.Join(t.TempDir(), "trace.json")}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	checkLine := func(t *testing.T, res resultLine, specs []metricSpec) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(specs) {
			t.Errorf("%d metrics reported, %d specified", len(res.Metrics), len(specs))
		}
		seen := map[string]bool{}
		for _, s := range specs {
			if seen[s.Name] {
				t.Errorf("%s specified twice", s.Name)
			}
			seen[s.Name] = true
			v, ok := res.Metrics[s.Name]
			switch {
			case !nameRE.MatchString(s.Name):
				t.Errorf("metric name %q is not well-formed", s.Name)
			case !ok:
				t.Errorf("%s not reported", s.Name)
			case v.Unit != s.Unit:
				t.Errorf("%s reported in %q, specified in %q", s.Name, v.Unit, s.Unit)
			case !finite(v.Value) || v.Value < 0:
				t.Errorf("%s = %v", s.Name, v.Value)
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := untracedRun(w, o)
			checkLine(t, res, endToEnd)
			for _, s := range endToEnd {
				if res.Metrics[s.Name].Value == 0 {
					t.Errorf("%s is 0: an end-to-end metric is never 0", s.Name)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		checkLine(t, tracedPass(o), perLayer)
		if st, err := os.Stat(o.traceOut); err != nil || st.Size() == 0 {
			t.Errorf("no Chrome trace at %s: %v", o.traceOut, err)
		}
	})
}

// TestSelfTime checks self time against a hand-made span tree in which two
// children overlap each other and one outlives its parent.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a by 10
		{Name: "c", Parent: 0, Start: 90, End: 120}, // 20 beyond root's end
		{Name: "leaf", Parent: 1, Start: 10, End: 15},
	}}
	self := tr.selfTimes()
	want := map[string]int64{"root": 100 - 50 - 10, "a": 25, "b": 30, "c": 30, "leaf": 5}
	for name, w := range want {
		if int64(self[name]) != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
}
