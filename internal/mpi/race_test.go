//go:build race

package mpi

// raceEnabled reports whether the test binary was built with the race
// detector, whose per-goroutine shadow state makes the 10k-rank tests
// needlessly slow at full scale.
const raceEnabled = true
