//go:build !race

package mpi

const raceEnabled = false
