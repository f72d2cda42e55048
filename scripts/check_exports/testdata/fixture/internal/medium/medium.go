// Package medium holds the fixture's allowed only-tests declaration.
package medium

// Build is called by awp.
func Build() int { return 1 }

// FromArrays is called by orphan's test only, and allowed: passes.
func FromArrays() int { return 2 }
