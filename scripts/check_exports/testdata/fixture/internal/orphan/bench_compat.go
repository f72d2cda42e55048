package orphan

// What only the benchmark reaches:
//
//	bench/bench.go:14  orphan.F()

// F is called by bench/: passes the function rule.
func F() {}
