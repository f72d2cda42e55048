package tuner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/grid"
)

// flat is a benchFn whose every repetition of every blocking costs ns.
func flat(calls *int, ns float64) func(fd.Blocking) []float64 {
	return func(fd.Blocking) []float64 {
		*calls++
		return []float64{ns, ns, ns}
	}
}

// The profile must round-trip: the first call benchmarks and writes, the
// second call for the same key returns the cached choice without invoking
// the benchmark at all.
func TestAutotuneRoundTrip(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "profile.json")
	calls := 0
	winner := fd.Blocking{JBlock: 16, KBlock: 16}
	opt := AutotuneOptions{
		Dims:      grid.Dims{NX: 96, NY: 80, NZ: 64},
		Threads:   4,
		CachePath: cache,
		benchFn: func(blk fd.Blocking) []float64 {
			calls++
			if blk == winner {
				return []float64{2.0, 2.1, 2.2}
			}
			return []float64{5.0, 5.2, 5.1}
		},
	}
	choice, samples, err := AutotuneKernels(opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("benchmark never invoked on cold cache")
	}
	if choice.FromCache {
		t.Fatal("cold-cache choice reported FromCache")
	}
	if choice.Blocking != winner || choice.NsPerCell != 2.0 {
		t.Fatalf("wrong winner: %+v", choice)
	}
	if want := 1 + len(autotuneCandidates(false)); len(samples) != want || want != 6 {
		t.Fatalf("expected the default and five candidates, got %d samples", len(samples))
	}
	if s := samples[0]; s.JBlock != fd.DefaultBlocking.JBlock || s.KBlock != fd.DefaultBlocking.KBlock {
		t.Fatalf("first sample is %+v, want the default blocking", s)
	}

	calls = 0
	cached, samples2, err := AutotuneKernels(opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("benchmark re-invoked %d times despite cached profile", calls)
	}
	if !cached.FromCache {
		t.Fatal("warm-cache choice not reported FromCache")
	}
	if cached.Blocking != choice.Blocking || cached.NsPerCell != choice.NsPerCell {
		t.Fatalf("cached choice %+v differs from original %+v", cached, choice)
	}
	if len(samples2) != len(samples) {
		t.Fatalf("cached samples %d != original %d", len(samples2), len(samples))
	}
}

// The candidates' times sit inside one another's repetition spread, so the
// fastest single measurement is noise. The default blocking is the incumbent
// and goes only to a candidate whose best repetition beats its best — over
// both its passes, the second being where a machine that changed speed
// mid-sweep shows — by more than the median spread of the sweep's samples.
func TestAutotuneKeepsDefaultWithinSpread(t *testing.T) {
	cand := fd.Blocking{JBlock: 32, KBlock: 32}
	def := [2][]float64{{10, 10.4, 11}, {10.2, 10.1, 10.9}} // spread 1.0
	for _, tc := range []struct {
		name       string
		def        [2][]float64 // the default's repetitions, before and after the candidates
		cand, rest []float64    // rest: the other four candidates
		want       fd.Blocking
	}{
		{"tie", [2][]float64{{10, 10, 10}, {10, 10, 10}}, []float64{10, 10, 10}, []float64{10, 10, 10}, fd.DefaultBlocking},
		{"noiseless and a hair faster", [2][]float64{{10, 10, 10}, {10, 10, 10}}, []float64{9.99, 9.99, 9.99}, []float64{10, 10, 10}, cand},
		{"faster best, inside the spread", def, []float64{9.7, 10.3, 10.6}, []float64{10.5, 11.1, 11.3}, fd.DefaultBlocking},
		{"every repetition faster, by less than the spread", def, []float64{9.7, 9.8, 9.9}, []float64{10.5, 11.1, 11.3}, fd.DefaultBlocking},
		{"clear winner", def, []float64{7, 7.9, 7.1}, []float64{10.5, 11.1, 11.3}, cand},
		{"two clear winners, the faster is taken", def, []float64{7, 7.9, 7.1}, []float64{8, 8.1, 8.8}, cand},
		{"machine sped up after the default was first timed", [2][]float64{{14, 14.2, 14.5}, {10, 10.1, 10.2}},
			[]float64{9.9, 10.2, 10.3}, []float64{10.4, 10.5, 10.6}, fd.DefaultBlocking},
	} {
		defCalls := 0
		choice, _, err := AutotuneKernels(AutotuneOptions{
			Dims: grid.Dims{NX: 28, NY: 28, NZ: 20}, Threads: 1,
			CachePath: filepath.Join(t.TempDir(), "profile.json"),
			benchFn: func(blk fd.Blocking) []float64 {
				switch blk {
				case fd.DefaultBlocking:
					defCalls++
					return tc.def[defCalls-1]
				case cand:
					return tc.cand
				}
				return tc.rest
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if defCalls != 2 {
			t.Fatalf("%s: default blocking timed %d times, want before and after the candidates", tc.name, defCalls)
		}
		if choice.Blocking != tc.want {
			t.Errorf("%s: chose %+v, want %+v", tc.name, choice.Blocking, tc.want)
		}
	}
}

// Different dims / threads / attenuation must key separate profile entries.
func TestAutotuneKeySeparation(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "profile.json")
	calls := 0
	mk := func(d grid.Dims, threads int, atten bool) AutotuneOptions {
		return AutotuneOptions{
			Dims: d, Threads: threads, Attenuation: atten, CachePath: cache,
			benchFn: flat(&calls, 1),
		}
	}
	base := grid.Dims{NX: 32, NY: 32, NZ: 32}
	for _, o := range []AutotuneOptions{
		mk(base, 1, false),
		mk(grid.Dims{NX: 64, NY: 32, NZ: 32}, 1, false), // different shape
		mk(base, 2, false), // different threads
		mk(base, 1, true),  // attenuation on
	} {
		before := calls
		if _, _, err := AutotuneKernels(o); err != nil {
			t.Fatal(err)
		}
		if calls == before {
			t.Fatalf("options %+v hit a cache entry it should not share", o)
		}
	}
	// And each re-read hits its own entry.
	before := calls
	if _, _, err := AutotuneKernels(mk(base, 1, true)); err != nil {
		t.Fatal(err)
	}
	if calls != before {
		t.Fatal("repeat lookup re-benchmarked")
	}
}

// A corrupt profile is a cache miss, not an error.
func TestAutotuneCorruptProfile(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(cache, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	opt := AutotuneOptions{
		Dims: grid.Dims{NX: 16, NY: 16, NZ: 16}, Threads: 1, CachePath: cache,
		benchFn: flat(&calls, 1),
	}
	if _, _, err := AutotuneKernels(opt); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("corrupt profile treated as a hit")
	}
	// The rewrite must leave valid JSON behind.
	data, err := os.ReadFile(cache)
	if err != nil {
		t.Fatal(err)
	}
	var p kernelProfile
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatalf("profile not rewritten as valid JSON: %v", err)
	}
	if len(p.Entries) != 1 {
		t.Fatalf("expected 1 entry after rewrite, got %d", len(p.Entries))
	}
}

// End-to-end with the real micro-benchmark on a tiny grid: the sweep must
// complete, return a usable blocking, and persist a parseable profile.
func TestAutotuneEndToEndQuick(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "profile.json")
	opt := AutotuneOptions{
		Dims:        grid.Dims{NX: 16, NY: 12, NZ: 10},
		Threads:     2,
		Attenuation: true,
		CachePath:   cache,
		Quick:       true,
	}
	choice, samples, err := AutotuneKernels(opt)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Blocking.JBlock <= 0 || choice.Blocking.KBlock <= 0 {
		t.Fatalf("unusable blocking %+v", choice.Blocking)
	}
	if choice.NsPerCell <= 0 {
		t.Fatalf("non-positive measurement: %g", choice.NsPerCell)
	}
	if len(samples) != 2 {
		t.Fatalf("expected 2 quick samples, got %d", len(samples))
	}
	for _, s := range samples {
		if s.NsPerCell <= 0 {
			t.Fatalf("sample %+v has non-positive timing", s)
		}
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	// Warm call must not re-run kernels (FromCache observable).
	again, _, err := AutotuneKernels(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !again.FromCache {
		t.Fatal("second end-to-end call did not hit the cache")
	}
}

func TestDefaultProfilePath(t *testing.T) {
	p, err := DefaultProfilePath()
	if err != nil {
		t.Skipf("no user cache dir in this environment: %v", err)
	}
	if filepath.Base(p) != "kernel-profile.json" {
		t.Fatalf("unexpected profile path %q", p)
	}
}

// A profile with an unknown format version — older (including the
// implicit 0 of pre-versioning files) or newer — is a cache miss, and the
// rewrite stamps the current version.
func TestAutotuneProfileVersionMismatch(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "profile.json")
	calls := 0
	opt := AutotuneOptions{
		Dims: grid.Dims{NX: 16, NY: 16, NZ: 16}, Threads: 1, CachePath: cache,
		benchFn: flat(&calls, 1),
	}
	if _, _, err := AutotuneKernels(opt); err != nil {
		t.Fatal(err)
	}
	for _, version := range []int{0, profileVersion - 1, profileVersion + 1} {
		data, err := os.ReadFile(cache)
		if err != nil {
			t.Fatal(err)
		}
		var p kernelProfile
		if err := json.Unmarshal(data, &p); err != nil {
			t.Fatal(err)
		}
		if p.Version != profileVersion {
			t.Fatalf("saved profile has version %d, want %d", p.Version, profileVersion)
		}
		p.Version = version
		forged, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cache, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		before := calls
		if _, _, err := AutotuneKernels(opt); err != nil {
			t.Fatal(err)
		}
		if calls == before {
			t.Fatalf("profile version %d treated as a hit", version)
		}
	}
	// After the rewrites the current version must hit again.
	before := calls
	if _, _, err := AutotuneKernels(opt); err != nil {
		t.Fatal(err)
	}
	if calls != before {
		t.Fatal("rewritten current-version profile missed")
	}
}

// A version-3 profile as PR 18 wrote it — variant and depth in the entry,
// an "|lts" key beside the plain one — is a miss, and what replaces it is a
// version-4 file holding only what this sweep measured.
func TestAutotuneV3ProfileRewritten(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "profile.json")
	d := grid.Dims{NX: 28, NY: 28, NZ: 20}
	key := profileKey(d, 1, true)
	v3 := `{"version": 3, "entries": {
		"` + key + `": {"variant": "unrolled", "jblock": 32, "kblock": 32, "tdepth": 2, "ns_per_cell": 11.5},
		"` + key + `|lts": {"variant": "fused", "jblock": 4, "kblock": 8, "tdepth": 1, "ns_per_cell": 12}}}`
	if err := os.WriteFile(cache, []byte(v3), 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	choice, _, err := AutotuneKernels(AutotuneOptions{
		Dims: d, Threads: 1, Attenuation: true, CachePath: cache, benchFn: flat(&calls, 12),
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || choice.FromCache {
		t.Fatal("version-3 profile treated as a hit")
	}
	if choice.Blocking != fd.DefaultBlocking {
		t.Fatalf("chose %+v from a flat sweep, want the default", choice.Blocking)
	}
	data, err := os.ReadFile(cache)
	if err != nil {
		t.Fatal(err)
	}
	var p kernelProfile
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if p.Version != 4 || len(p.Entries) != 1 || p.Entries[key].JBlock != fd.DefaultBlocking.JBlock {
		t.Fatalf("rewritten profile: version %d, entries %+v", p.Version, p.Entries)
	}
	for _, stale := range []string{"variant", "tdepth", "|lts"} {
		if strings.Contains(string(data), stale) {
			t.Errorf("rewritten profile still holds %q", stale)
		}
	}
}
