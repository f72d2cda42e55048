//go:build !amd64

package boundary

func dampRows8(n, rows, stride int, x, fx, fy *float32, fz float32) {
	panic("boundary: no vector walker on this platform")
}
