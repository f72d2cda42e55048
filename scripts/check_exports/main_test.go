package main

import (
	"strings"
	"testing"
)

// TestFixture runs the checker on a module with one case of each rule: each
// failing case must fail with its own line, and nothing else may fail. Of
// the only-tests cases, core.Helper (called by orphan's test), OtherTest
// (set by orphan's test) and orphan's import of testkit fail, and
// medium.FromArrays, which orphan's test alone calls, passes: it is allowed.
func TestFixture(t *testing.T) {
	got, err := check("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/core/core.go:33: core.BenchStray: only bench reaches it, outside bench_compat.go",
		"internal/core/core.go:30: core.Helper: only tests reference it",
		"internal/core/bench_compat.go:16: core.Leaked: in bench_compat.go, but production reaches it",
		"internal/core/core.go:16: core.OnlyOwnTest: only tests reference it",
		"internal/core/core.go:13: core.Unused: nothing references it",
		"internal/core/core.go:37: core.compatHelper: only bench reaches it, outside bench_compat.go",
		"internal/core/core.go:19: core.selfOnly: nothing references it",
		"internal/core/core.go:27: core.unusedConst: nothing references it",
		"internal/core/fields.go:5: core.Settings.OwnTest: only tests set it",
		"internal/core/fields.go:6: core.Settings.Nowhere: nothing sets it",
		"internal/core/fields.go:12: core.Settings.BenchBare: only bench sets it, and it is neither in bench_compat.go nor marked // bench-only",
		"internal/core/fields.go:13: core.Settings.Marked: bench-only, but production sets it",
		"internal/core/fields.go:14: core.Settings.OtherTest: only tests set it",
		"internal/core/fields.go:17: core.Settings.Defaulted: nothing sets it",
		"internal/core/fields.go:33: core.counter.dead: nothing reads it",
		"internal/orphan: no non-test importer outside bench/",
		"internal/testkit: imported by non-test files of fixture/internal/orphan",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}
