// Package main is the fixture's benchmark: its calls and sets count, its
// imports do not.
package main

import (
	"fixture/internal/core"
	"fixture/internal/orphan"
)

func main() {
	core.BenchOnly()
	orphan.F()
	println(core.Settings{BenchOnly: 1}.BenchOnly)
}
