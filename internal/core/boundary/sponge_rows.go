package boundary

// dampRows is the sponge's row walker: x holds len(fy) rows of len(fx) values
// each, stride apart, and row r is multiplied in place by fx[i]·(fy[r]·fz) —
// the row factor formed in float32 first, as one product a row. vec runs the
// rows in one call of the 8-lane walker, which stores the bits of the Go loop
// below; the Go loop is the body off amd64 and without AVX2, and the
// walker's oracle (TestSpongeWalkerMatchesGo).
func dampRows(x []float32, stride int, fx, fy []float32, fz float32, vec bool) {
	n, rows := len(fx), len(fy)
	if n == 0 || rows == 0 {
		return
	}
	x = x[:(rows-1)*stride+n]
	if vec && len(x) > 0 {
		dampRows8(n, rows, stride, &x[0], &fx[0], &fy[0], fz)
		return
	}
	for r, y := range fy {
		fyz := y * fz
		row := x[r*stride:][:n]
		fx := fx[:len(row)]
		for i := range row {
			row[i] *= fx[i] * fyz
		}
	}
}
