package core

// What only the benchmark reaches:
//
//	bench/bench.go:11  core.BenchOnly()
//	bench/bench.go:13  core.Compat()
//	bench/bench.go:16  core.CompatSettings{N: 1}

// BenchOnly is called by bench/ only: passes.
func BenchOnly() {}

// Compat is called by bench/ only: passes.
func Compat() int { return compatHelper() }

// Leaked is called by Used, production: fails.
func Leaked() int { return 0 }

// CompatSettings' field is declared here, so it needs no marker: passes.
type CompatSettings struct{ N int }
