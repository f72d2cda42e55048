package meshpart

import (
	"encoding/binary"
	"math"

	"repro/internal/decomp"
	"repro/internal/grid"
)

// extract assembles the padded sub-mesh for sub into vp, vs and rho (each
// at least paddedLen(sub.Local) long; every cell is written) a padded x-row
// at a time. row(gj, gk) returns the records of global row (gj, gk) — Vp,
// Vs and rho interleaved, three float32s a point — starting at global x
// index first; they must cover the sub-mesh's clamped x range. Padded rows
// and planes outside the global grid ask for the nearest one, and the cells
// of a row left of x = 0 or past NX-1 take its first or last record: the
// coordinate clamping of direct CVM extraction. Like cvm/rows.go it works
// through per-row windows, so its loops carry no bounds checks:
// scripts/check_bce.sh guards this file.
func extract(global grid.Dims, sub decomp.Sub, vp, vs, rho []float32, row func(gj, gk int) (recs []float32, first int)) {
	g, d := grid.Ghost, sub.Local
	// Padded cell i of a row sits at global x x0+i: lead cells clamp to
	// x = 0, tail cells to NX-1, and the mid cells between read their own
	// records.
	w, x0 := d.NX+2*g, sub.OffX-g
	lead := max(0, -x0)
	tail := max(0, x0+w-global.NX)
	mid := w - lead - tail
	n := 0
	for k := -g; k < d.NZ+g; k++ {
		gk := clamp(sub.OffZ+k, global.NZ)
		for j := -g; j < d.NY+g; j++ {
			recs, first := row(clamp(sub.OffY+j, global.NY), gk)
			src := recs[3*(x0+lead-first):][:3*mid]
			p, s, r := vp[n:][:w], vs[n:][:w], rho[n:][:w]
			fillRec(p[:lead], s[:lead], r[:lead], src)
			setRecs(p[lead:], s[lead:], r[lead:], src)
			fillRec(p[lead+mid:], s[lead+mid:], r[lead+mid:], src[len(src)-3:])
			n += w
		}
	}
}

// setRecs stores the records of src, in order, into vp, vs and rho until
// either runs out.
func setRecs(vp, vs, rho, src []float32) {
	vs, rho = vs[:len(vp)], rho[:len(vp)]
	for i := 0; i < len(vp) && len(src) >= 3; i++ {
		vp[i], vs[i], rho[i] = src[0], src[1], src[2]
		src = src[3:]
	}
}

// fillRec stores the first record of src into every cell of vp, vs and rho.
func fillRec(vp, vs, rho, src []float32) {
	r, vs, rho := src[:3], vs[:len(vp)], rho[:len(vp)]
	for i := range vp {
		vp[i], vs[i], rho[i] = r[0], r[1], r[2]
	}
}

// decodeFloat32s stores the little-endian float32s of b into dst until
// either runs out.
func decodeFloat32s(dst []float32, b []byte) {
	for i := 0; i < len(dst) && len(b) >= 4; i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
}

// appendFloat32s appends vals to b as little-endian float32s.
func appendFloat32s(b []byte, vals []float32) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}
