package grid

// narrowRow is the widest block row copyBlock moves without a copy call. An
// x-face halo section is Ghost = 2 values wide, so its pack and unpack are
// one such row per (j,k), and a call a row costs several times the two
// values it moves.
const narrowRow = 2

// copyNarrow is copyBlock for a block of rows of one or two values: per plane
// one window of the field from the block's first row to its last and one of
// buf, then per row its first and its last value (the same one when the row
// is one value wide), with no per-point bounds check (guarded by
// scripts/check_bce.sh). It moves the values copyRows does, in the same
// order, and touches nothing else.
func (f *Field3) copyNarrow(i0, i1, j0, j1, k0, k1 int, buf []float32, pack bool) int {
	w, nj, sy := i1-i0, j1-j0, f.sx
	if w <= 0 || nj <= 0 || k1 <= k0 {
		return 0
	}
	span, plane := (nj-1)*sy+w, nj*w
	n := 0
	for k := k0; k < k1; k++ {
		win := f.data[f.Idx(i0, j0, k):][:span]
		out := buf[n:][:plane]
		for j := 0; j < nj; j++ {
			row := win[j*sy:][:w]
			vals := out[j*w:][:w]
			if pack {
				vals[0], vals[w-1] = row[0], row[w-1]
			} else {
				row[0], row[w-1] = vals[0], vals[w-1]
			}
		}
		n += plane
	}
	return n
}
