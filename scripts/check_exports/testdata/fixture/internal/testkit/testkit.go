// Package testkit holds what tests share; orphan's non-test import of it
// fails the package rule.
package testkit

// Fill is called by core's test: passes.
func Fill() int { return 3 }
