// Package core holds one declaration for each case of the function rule.
package core

import (
	"errors"
	"fmt"
)

// Used is called by awp: passes.
func Used() string { return fmt.Sprint(name{}, errors.Unwrap(wrapped{})) }

// Unused has no reference at all: fails.
func Unused() {}

// OnlyOwnTest is called by this package's test only: fails.
func OnlyOwnTest() int { return 0 }

// selfOnly calls itself and nothing else calls it: fails.
func selfOnly(n int) int {
	if n == 0 {
		return 0
	}
	return selfOnly(n - 1)
}

// unusedConst is referenced nowhere: fails.
const unusedConst = 1

// Helper is used by orphan's test: passes.
func Helper() int { return 2 }

// BenchOnly is called by bench/ only: passes.
func BenchOnly() {}

type name struct{}

// String implements fmt.Stringer: passes.
func (name) String() string { return "name" }

type wrapped struct{ err error }

// Error implements error: passes.
func (w wrapped) Error() string { return "wrapped" }

// Unwrap implements the errors package's unnamed interface: passes.
func (w wrapped) Unwrap() error { return w.err }
