// Package main is the fixture's benchmark: its calls and sets count, its
// imports do not.
package main

import (
	"fixture/internal/core"
	"fixture/internal/orphan"
)

func main() {
	core.BenchOnly()
	core.BenchStray()
	println(core.Compat())
	orphan.F()
	println(core.Settings{BenchOnly: 1, BenchBare: 1}.BenchOnly)
	println(core.CompatSettings{N: 1}.N)
}
