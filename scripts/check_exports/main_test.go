package main

import (
	"strings"
	"testing"
)

// TestFixture runs the checker on a module with one case of each rule: each
// failing case must fail with its own line, and nothing else may fail.
func TestFixture(t *testing.T) {
	got, err := check("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/core/core.go:16: core.OnlyOwnTest: only its own package's tests reference it",
		"internal/core/core.go:13: core.Unused: nothing references it",
		"internal/core/core.go:19: core.selfOnly: nothing references it",
		"internal/core/core.go:27: core.unusedConst: nothing references it",
		"internal/core/fields.go:5: core.Settings.OwnTest: only its own package's tests set it",
		"internal/core/fields.go:6: core.Settings.Nowhere: nothing sets it",
		"internal/core/fields.go:15: core.Settings.Defaulted: nothing sets it",
		"internal/core/fields.go:31: core.counter.dead: nothing reads it",
		"internal/orphan: no non-test importer outside bench/",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}
