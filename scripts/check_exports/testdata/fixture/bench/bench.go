// Package main is the fixture's benchmark: its calls count, its imports
// do not.
package main

import (
	"fixture/internal/core"
	"fixture/internal/orphan"
)

func main() {
	core.BenchOnly()
	orphan.F()
}
