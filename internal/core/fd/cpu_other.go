//go:build !amd64

package fd

// Vector is false: there is no vector body off amd64, so the Go loop sweeps
// every cell.
var Vector = false
