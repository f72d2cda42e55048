package boundary

// dampRows8 is dampRows' 8-lane walker (simd_amd64.s): for each of rows rows,
// stride values apart from x, it multiplies the row's n values by fx[i]·fyz,
// fyz = fy[r]·fz, eight lanes at a time and the last n mod 8 one at a time,
// without FMA. It reads n values at fx and rows at fy, reads and writes
// [x+4·r·stride, x+4·(r·stride+n)) of each row and nothing else.
//
//go:noescape
func dampRows8(n, rows, stride int, x, fx, fy *float32, fz float32)
