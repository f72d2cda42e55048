package main

import (
	"sort"
	"strings"
	"testing"
)

// TestExperimentIDs holds the -exp id list to the one place it is
// written: the usage string lists exactly the keys of exps plus all,
// every id all runs is a key, and the ids of the deleted generators
// resolve to the unknown-experiment error. It runs no experiment.
func TestExperimentIDs(t *testing.T) {
	want := []string{"all"}
	for id := range exps {
		want = append(want, id)
	}
	sort.Strings(want)
	got := strings.Split(expIDs(), ", ")
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("usage lists %v, exps holds %v", got, want)
	}

	for _, id := range allOrder {
		if exps[id] == nil {
			t.Errorf("-exp all runs %q, which is not an experiment", id)
		}
	}

	for _, tc := range []struct {
		id      string
		unknown bool
	}{
		{"table1", false}, {"fig22", false}, {"sustained", false},
		{"phases", false}, {"ft", false}, {"lts", false}, {"all", false},
		{"scale", true}, {"io", true}, {"farm", true}, {"", true},
	} {
		ids, err := resolve(tc.id)
		if tc.unknown {
			if err == nil || !strings.Contains(err.Error(), "unknown experiment") ||
				!strings.Contains(err.Error(), expIDs()) {
				t.Errorf("resolve(%q) = %v, %v; want the unknown-experiment error listing the ids", tc.id, ids, err)
			}
			continue
		}
		if err != nil || len(ids) == 0 {
			t.Errorf("resolve(%q) = %v, %v", tc.id, ids, err)
		}
	}
}
