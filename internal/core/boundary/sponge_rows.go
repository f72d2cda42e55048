package boundary

// dampRows is the sponge's row walker: x holds len(fy) rows of len(fx) values
// each, stride apart, and row r is multiplied in place by fx[i]·(fy[r]·fz) —
// the row factor formed in float32 first, as one product a row. Its body is
// dampCells, generated with its 8-lane walker dampRows8 from a table
// (scripts/lanegen): vec runs the rows in one walker call, which stores the
// bits of the Go loop; the Go loop is the body off amd64 and without AVX2,
// and the walker's oracle (TestSpongeWalkerMatchesGo).
func dampRows(x []float32, stride int, fx, fy []float32, fz float32, vec bool) {
	fzs := [1]float32{fz}
	dampCells(len(fx), len(fy), 1, 0, stride, 0, x, fx, fy, fzs[:], vec)
}
