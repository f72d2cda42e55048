package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// The walkers' general-purpose registers: AX and BX hold the window
// pointers read from the frame, CX the chunks left in the row, DX the full
// chunks a row, R8 the rows left in the plane, R9 the planes left and R12
// the row's n mod 8 tail cells. The rest are handed out in order: R13 the
// x-parity table's row offset, one byte cursor a grid (32 bytes a chunk),
// the taper's fx less the row's first cursor (so the first grid's cursor
// indexes fx) and its fy pointer; if they fit, one register a grid for its
// row step less the row's full chunks; and if every pointer the loops read
// fits in those left, one register a pointer, loaded once. BP and R15 are
// not used; R14 is free in an ABI0 body, the ABIInternal caller reloading g
// after the call.
var gpRegs = []string{"R13", "SI", "DI", "R14", "R10", "R11"}

// gp is a walker's assignment of general-purpose registers.
type gp struct {
	cursors  []string          // a grid's byte cursor
	rows     []string          // a grid's row step less the full chunks, if held
	col, fyp string            // fx less the row's first cursor, and the fy pointer
	ptrs     map[string]string // the pointers held in registers
}

func (t *table) gpRegs() *gp {
	free := gpRegs[1:]
	if t.parity == "" {
		free = append(free, gpRegs[0])
	}
	take := func() string { r := free[0]; free = free[1:]; return r }
	g := &gp{ptrs: map[string]string{}}
	for range t.grids {
		g.cursors = append(g.cursors, take())
	}
	var ptrs []string
	if t.parity != "" {
		ptrs = append(ptrs, t.parity)
	}
	for _, w := range t.wins {
		ptrs = append(ptrs, w.name)
	}
	if t.tapers() {
		g.col, g.fyp = take(), take()
		ptrs = append(ptrs, "fx")
	}
	if len(t.grids) <= len(free) {
		for range t.grids {
			g.rows = append(g.rows, take())
		}
	}
	if len(ptrs) <= len(free) {
		for _, p := range ptrs {
			g.ptrs[p] = take()
		}
	}
	return g
}

// asmFile writes the walkers of ts.
func asmFile(ts []*table) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n\n#include \"textflag.h\"\n\n", header)
	b.WriteString(`// The 8-lane tile walkers of the row bodies in sweeps_gen.go, each its
// table's cell program compiled to VEX instructions, one rounding an
// operation and no FMA, in the Go association order (DESIGN.md §9).

// lanes<>+32-4t is the mask of a t-cell tail: t lanes of all ones, then
// zeros; lanes<>+32 is +0 on 8 lanes.
DATA lanes<>+0(SB)/8, $-1
DATA lanes<>+8(SB)/8, $-1
DATA lanes<>+16(SB)/8, $-1
DATA lanes<>+24(SB)/8, $-1
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// floor<> is fd.Quiesce's floor, twice the bits of 2^-100, on 8 lanes.
DATA floor<>+0(SB)/8, $0x1b0000001b000000
DATA floor<>+8(SB)/8, $0x1b0000001b000000
DATA floor<>+16(SB)/8, $0x1b0000001b000000
DATA floor<>+24(SB)/8, $0x1b0000001b000000
GLOBL floor<>(SB), RODATA|NOPTR, $32

// QUIESCE is fd.Quiesce: t becomes x, or +0 where x's bits shifted left by
// one are below the floor's (an unsigned compare, so the sign drops out and
// ±Inf and NaN pass), through u.
#define QUIESCE(x, t, u, floor) VPSLLD $1, x, t; VPMAXUD floor, t, u; VPCMPEQD u, t, t; VPAND x, t, t
`)
	for _, t := range ts {
		if err := t.walkerAsm(&b); err != nil {
			return nil, fmt.Errorf("%s: %v", t.walker, err)
		}
	}
	return b.Bytes(), nil
}

// A loop is one expansion of the cell program: its body and the registers
// it keeps across chunks.
type loop struct {
	tail, taper bool
	scalar      bool // a tail run a cell at a time on the registers' low lanes
	invs        map[string]*inv
	mask, tmp   int // a masked tail's lane mask and load temporary (16: none)
	high        int // the highest register a value takes
	body        bytes.Buffer
	pins        []string
}

var errNoReg = errors.New("out of registers")

// compile compiles the program for a loop, pinning as many of the loop's
// invariants to registers as fit, in the order floor, +0, the x-parity
// vectors, α, fyz; those left read from memory.
func (t *table) compile(off map[string]int, g *gp, tail, taper bool) (*loop, error) {
	scalars := strings.Fields(t.scalars)
	mkInvs := func() map[string]*inv {
		m := map[string]*inv{}
		add := func(key string, kind byte, idx, reg int) { m[key] = &inv{key: key, kind: kind, idx: idx, reg: reg} }
		add("%0", 'z', 0, -1)
		add("%floor", 'f', 0, -1)
		add("%α", 'a', 0, -1)
		add("%fyz", 'y', 0, -1)
		for i, s := range scalars {
			add(s, 's', 0, 15-i)
		}
		for q, p := range strings.Fields(t.parityVals) {
			add(p, 'p', q, -1)
		}
		return m
	}
	// The invariants the loop reads, in pinning order.
	_, used, err := t.build(mkInvs(), taper)
	if err != nil {
		return nil, err
	}
	var cands []string
	for _, c := range append([]string{"%floor", "%0"}, append(strings.Fields(t.parityVals), "%α", "%fyz")...) {
		if used[c] {
			cands = append(cands, c)
		}
	}
	for k := len(cands); k >= 0; k-- {
		l := &loop{tail: tail, taper: taper, scalar: tail && t.scalarTail, invs: mkInvs(), mask: 16, tmp: 16}
		// Pins first, so a pin both loops of an expansion hold is in one
		// register; the tail's mask and load temporary below them.
		next := 15 - len(scalars)
		for _, c := range cands[:k] {
			l.invs[c].reg = next
			l.pins = append(l.pins, c)
			next--
		}
		if tail && !l.scalar {
			l.mask, l.tmp, next = next, next-1, next-2
		}
		seq, _, _ := t.build(l.invs, taper)
		e := &emitter{t: t, off: off, gp: g, l: l, b: &l.body, top: next}
		if err := e.run(seq); err == nil {
			return l, nil
		} else if err != errNoReg {
			return nil, err
		}
	}
	return nil, errNoReg
}

// An emitter writes one loop's body.
type emitter struct {
	t     *table
	off   map[string]int
	gp    *gp
	l     *loop
	b     *bytes.Buffer
	top   int // the highest register values may take
	used  [16]bool
	cache [2]string // the window whose pointer AX, BX hold
	lru   int
}

func (e *emitter) ins(format string, a ...any) { fmt.Fprintf(e.b, "\t"+format+"\n", a...) }

func (e *emitter) arg(name string) string { return fmt.Sprintf("%s+%d(FP)", name, e.off[name]) }

// ptr returns the register holding the pointer argument name.
func (e *emitter) ptr(name string) string {
	if r := e.gp.ptrs[name]; r != "" {
		return r
	}
	gp := [2]string{"AX", "BX"}
	for i, h := range e.cache {
		if h == name {
			e.lru = 1 - i
			return gp[i]
		}
	}
	i := e.lru
	e.ins("MOVQ %s, %s", e.arg(name), gp[i])
	e.cache[i], e.lru = name, 1-i
	return gp[i]
}

func (e *emitter) alloc(avoid int) int {
	for r := 0; r <= e.top; r++ {
		if !e.used[r] && r != avoid {
			e.used[r] = true
			e.l.high = max(e.l.high, r)
			return r
		}
	}
	panic(errNoReg)
}

func y(r int) string { return fmt.Sprintf("Y%d", r) }

func (e *emitter) cursor(w *window) string {
	for i := range e.t.grids {
		if &e.t.grids[i] == w.grid {
			return e.gp.cursors[i]
		}
	}
	panic("window off every grid")
}

// inReg reports whether n is read from a register.
func inReg(n *node) bool { return !n.fold && (n.op != 'I' || n.inv.reg >= 0) }

func regOf(n *node) int {
	if n.op == 'I' {
		return n.inv.reg
	}
	return n.reg
}

// mem returns the memory operand of n, a folded load or an invariant in
// memory.
func (e *emitter) mem(n *node) string {
	if n.op == 'L' {
		return fmt.Sprintf("(%s)(%s*1)", e.ptr(n.win.name), e.cursor(n.win))
	}
	switch v := n.inv; v.kind {
	case 'z':
		return "lanes<>+32(SB)"
	case 'f':
		return "floor<>(SB)"
	case 'p':
		return fmt.Sprintf("%d(%s)(R13*1)", 128*v.idx, e.ptr(e.t.parity))
	case 'a':
		return "(SP)"
	case 'y':
		return "32(SP)"
	}
	panic("scalar in memory")
}

// load sets register dst to n, read from memory.
func (e *emitter) load(n *node, dst int) {
	switch {
	case e.masked() && n.op == 'L':
		e.ins("VMASKMOVPS %s, %s, %s", e.mem(n), y(e.l.mask), y(dst))
	case e.l.scalar:
		e.ins("VMOVSS %s, %s", e.mem(n), e.r(dst))
	default:
		e.ins("VMOVUPS %s, %s", e.mem(n), y(dst))
	}
}

// masked reports whether the loop is a masked tail.
func (e *emitter) masked() bool { return e.l.tail && !e.l.scalar }

// r names register n as the loop uses it: all 8 lanes, or a scalar tail's
// low lane.
func (e *emitter) r(n int) string {
	if e.l.scalar {
		return fmt.Sprintf("X%d", n)
	}
	return y(n)
}

// op is a packed operation, or its scalar form in a scalar tail.
func (e *emitter) op(name string) string {
	if e.l.scalar {
		return strings.TrimSuffix(name, "PS") + "SS"
	}
	return name
}

func (e *emitter) run(seq []step) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != errNoReg {
				panic(r)
			}
			err = errNoReg
		}
	}()
	dying := func(n *node, i int) bool { return n.op != 'I' && !n.fold && n.last == i }
	for i, s := range seq {
		if s.text != "" {
			fmt.Fprintf(e.b, "\t// %s\n", s.text)
		}
		n := s.n
		switch {
		case n == nil:
		case s.store != nil:
			if !inReg(n) {
				return fmt.Errorf("stores %s from memory", s.store.name)
			}
			mem := fmt.Sprintf("(%s)(%s*1)", e.ptr(s.store.name), e.cursor(s.store))
			switch {
			case e.masked():
				e.ins("VMASKMOVPS %s, %s, %s", y(regOf(n)), y(e.l.mask), mem)
			case e.l.scalar:
				e.ins("VMOVSS %s, %s", e.r(regOf(n)), mem)
			default:
				e.ins("VMOVUPS %s, %s", y(regOf(n)), mem)
			}
			if dying(n, i) {
				e.used[n.reg] = false
			}
		case n.op == 'L':
			n.reg = e.alloc(-1)
			e.load(n, n.reg)
		case n.op == 'Q':
			x := n.a
			if !inReg(x) {
				return fmt.Errorf("quiesces a value in memory")
			}
			n.reg = e.alloc(-1)
			u := e.alloc(-1)
			floor := "floor<>(SB)"
			if r := e.l.invs["%floor"].reg; r >= 0 {
				floor = e.r(r)
			}
			e.ins("QUIESCE(%s, %s, %s, %s)", e.r(regOf(x)), e.r(n.reg), e.r(u), floor)
			e.used[u] = false
			if dying(x, i) {
				e.used[x.reg] = false
			}
		default:
			a, b := n.a, n.b
			if commutes(n.op) && !inReg(a) && inReg(b) {
				a, b = b, a
			}
			if inReg(a) {
				if dying(b, i) && b != a {
					e.used[b.reg] = false
				}
				if dying(a, i) {
					n.reg = a.reg // the result takes a's register
				} else {
					n.reg = e.alloc(-1)
				}
			} else {
				// a is loaded into the destination first, so it must not be
				// b's register.
				avoid := -1
				if inReg(b) {
					avoid = regOf(b)
				}
				n.reg = e.alloc(avoid)
				e.load(a, n.reg)
				if dying(b, i) {
					e.used[b.reg] = false
				}
			}
			src := ""
			switch {
			case inReg(b):
				src = e.r(regOf(b))
			case e.masked() && b.op == 'L':
				e.load(b, e.l.tmp)
				src = y(e.l.tmp)
			default:
				src = e.mem(b)
			}
			ra := n.reg
			if inReg(a) {
				ra = regOf(a)
			}
			e.ins("%s %s, %s, %s", e.op(map[byte]string{'+': "VADDPS", '-': "VSUBPS", '*': "VMULPS"}[n.op]), src, e.r(ra), e.r(n.reg))
		}
		if n != nil && s.store == nil && n.op != 'I' && n.last == i {
			e.used[n.reg] = false
		}
	}
	return nil
}

// walkerAsm writes t's walker.
func (t *table) walkerAsm(b *bytes.Buffer) error {
	off, size := t.frame()
	taper := t.tapers()
	g := t.gpRegs()
	var loops [2][2]*loop // [tapered][tail]
	for tp := 0; tp < 2; tp++ {
		for tl := 0; tl < 2 && (tp == 0 || taper); tl++ {
			l, err := t.compile(off, g, tl == 1, tp == 1)
			if err != nil {
				return err
			}
			loops[tp][tl] = l
		}
	}
	// A tapered walk keeps α at (SP) and fyz at 32(SP), each on 8 lanes, and
	// the plane's fz at 64(SP), when a register cannot hold them; fz is held
	// in the low lane of a register neither tapered loop touches, if any.
	frame, fz, spillFyz := 0, "64(SP)", false
	if full, tail := loops[1][0], loops[1][1]; taper {
		if r := max(full.high, tail.high) + 1; r < min(tail.tmp, lowestPin(full), lowestPin(tail)) {
			fz = fmt.Sprintf("X%d", r)
		}
		fyzFull, fyzTail := full.invs["%fyz"].reg, tail.invs["%fyz"].reg
		spillFyz = fyzFull < 0 || fyzTail >= 0 && fyzTail != fyzFull
		if fz[0] != 'X' || spillFyz || full.invs["%α"].reg < 0 || tail.invs["%α"].reg < 0 {
			frame = 72
		}
	}
	arg := func(name string) string { return fmt.Sprintf("%s+%d(FP)", name, off[name]) }
	w := func(format string, a ...any) { fmt.Fprintf(b, format+"\n", a...) }

	w("\n// %s", strings.ReplaceAll(t.walkerSig(), "\n", "\n// "))
	for i, s := range strings.Fields(t.scalars) {
		w("// Y%d = %s on 8 lanes.", 15-i, s)
	}
	w("TEXT ·%s(SB), NOSPLIT, $%d-%d", t.walker, frame, size)
	w("\tMOVQ n+0(FP), DX\n\tMOVQ nj+8(FP), R8\n\tMOVQ nk+16(FP), R9")
	w("\tMOVQ DX, R12\n\tANDQ $7, R12\n\tSHRQ $3, DX\n\tMOVQ DX, AX\n\tSHLQ $5, AX")
	if t.scalarTail {
		w("\tLEAQ (AX)(R12*4), AX // and its scalar tail")
	}
	rowStep := func(i int) string { return arg(t.grids[i].name + "row") }
	for i := range t.grids {
		if g.rows != nil {
			w("\tMOVQ %s, %s", rowStep(i), g.rows[i])
			w("\tSUBQ AX, %s // a row's step less its full chunks", g.rows[i])
		} else {
			w("\tSUBQ AX, %s // a row's step less its full chunks", rowStep(i))
		}
		w("\tXORQ %[1]s, %[1]s", g.cursors[i])
	}
	if t.parity != "" {
		w("\tXORQ R13, R13")
	}
	for _, p := range append(append([]string{t.parity}, t.winNames()...), "fx") {
		if r := g.ptrs[p]; r != "" {
			w("\tMOVQ %s, %s", arg(p), r)
		}
	}
	for i, s := range strings.Fields(t.scalars) {
		w("\tVBROADCASTSS %s, Y%d", arg(s), 15-i)
	}
	if taper {
		if r := g.ptrs["fx"]; r != "" {
			w("\tTESTQ %[1]s, %[1]s\n\tJNE tstart", r)
		} else {
			w("\tMOVQ %s, AX\n\tTESTQ AX, AX\n\tJNE tstart", arg("fx"))
		}
	}
	for tp, pre := range []string{"", "t"} {
		if tp == 1 && !taper {
			break
		}
		if tp == 0 && len(t.stmts) == 0 {
			w("\ndone:\n\tVZEROUPPER\n\tRET")
			continue
		}
		full, tail := loops[tp][0], loops[tp][1]
		// The tail's mask is loaded once a walk where the full chunks leave
		// its register alone, once a row where they do not.
		mask := fmt.Sprintf("\tMOVQ R12, AX\n\tNEGQ AX\n\tLEAQ lanes<>+32(SB), BX\n\tVMOVUPS (BX)(AX*4), Y%d", tail.mask)
		hoist := !tail.scalar && tail.mask > full.high && !slices.ContainsFunc(full.pins, func(p string) bool { return full.invs[p].reg == tail.mask })
		// A pin both loops hold in one register is loaded once a row, and
		// once a walk if it is a constant (+0, the floor).
		shared, constant := map[string]bool{}, map[string]bool{}
		for _, p := range full.pins {
			shared[p] = full.invs[p].reg == tail.invs[p].reg
			constant[p] = shared[p] && strings.Contains("zf", string(full.invs[p].kind))
		}
		if tp == 1 {
			w("\ntstart:")
		}
		if hoist {
			w(mask)
		}
		t.pinLoads(b, full, g, arg, "", func(p string) bool { return constant[p] })
		w("\n%splane:\n\tMOVQ %s, R8", pre, arg("nj"))
		if tp == 1 {
			w("\tMOVQ %s, AX\n\tSUBQ R9, AX\n\tMOVQ %s, BX", arg("nk"), arg("fz"))
			if fz[0] == 'X' {
				w("\tVMOVSS (BX)(AX*4), %s // fz[q]", fz)
			} else {
				w("\tVMOVSS (BX)(AX*4), X0\n\tVMOVSS X0, 64(SP) // fz[q]")
			}
			w("\tMOVQ %s, %s", arg("fy"), g.fyp)
		}
		w("\n%srow:", pre)
		fyz := "Y0"
		if tp == 1 {
			if fz[0] == 'X' {
				w("\tVMULSS (%s), %s, X0\n\tADDQ $4, %s", g.fyp, fz, g.fyp)
			} else {
				w("\tVMOVSS (%s), X0\n\tVMULSS 64(SP), X0, X0\n\tADDQ $4, %s", g.fyp, g.fyp)
			}
			if shared["%fyz"] {
				fyz = y(full.invs["%fyz"].reg)
			}
			w("\tVBROADCASTSS X0, %s // fyz = fy[r]·fz[q]", fyz)
			if spillFyz {
				w("\tVMOVUPS %s, 32(SP)", fyz)
			}
			fx := arg("fx")
			if r := g.ptrs["fx"]; r != "" {
				fx = r
			}
			w("\tMOVQ %s, %s\n\tSUBQ %s, %s // fx at the cursor", fx, g.col, g.cursors[0], g.col)
		}
		t.pinLoads(b, full, g, arg, fyz, func(p string) bool { return shared[p] && !constant[p] })
		w("\tMOVQ DX, CX\n\tTESTQ CX, CX\n\tJEQ %stail", pre)
		t.pinLoads(b, full, g, arg, "Y0", func(p string) bool { return !shared[p] })
		w("\tPCALIGN $32\n\n%sfull:", pre)
		t.alpha(b, full, g)
		b.Write(full.body.Bytes())
		for _, c := range g.cursors {
			w("\tADDQ $32, %s", c)
		}
		w("\tDECQ CX\n\tJNZ %sfull\n\n%stail:\n\tTESTQ R12, R12\n\tJEQ %snext", pre, pre, pre)
		switch {
		case tail.scalar:
			w("\tMOVQ R12, CX")
		case !hoist:
			w(mask)
		}
		t.pinLoads(b, tail, g, arg, "32(SP)", func(p string) bool { return !shared[p] })
		if tail.scalar {
			w("\n%scell:", pre)
		}
		t.alpha(b, tail, g)
		b.Write(tail.body.Bytes())
		if tail.scalar {
			for _, c := range g.cursors {
				w("\tADDQ $4, %s", c)
			}
			w("\tDECQ CX\n\tJNZ %scell", pre)
		}
		w("\n%snext:", pre)
		for i := range t.grids {
			if g.rows != nil {
				w("\tADDQ %s, %s", g.rows[i], g.cursors[i])
			} else {
				w("\tADDQ %s, %s", rowStep(i), g.cursors[i])
			}
		}
		if t.parity != "" {
			w("\tXORQ $32, R13 // the next row's j parity")
		}
		w("\tDECQ R8\n\tJNZ %srow", pre)
		for i, gr := range t.grids {
			w("\tADDQ %s, %s", arg(gr.name+"plane"), g.cursors[i])
		}
		if t.parity != "" {
			w("\tANDQ $64, R13 // the next plane's first row: even j, the other k parity\n\tXORQ $64, R13")
		}
		w("\tDECQ R9\n\tJNZ %splane", pre)
		if tp == 0 {
			w("\ndone:")
		}
		w("\tVZEROUPPER\n\tRET")
	}
	return nil
}

// lowestPin returns the lowest register l pins, 16 if none.
func lowestPin(l *loop) int {
	r := 16
	for _, p := range l.pins {
		r = min(r, l.invs[p].reg)
	}
	return r
}

// pointer returns the register holding pointer argument p, loading it into
// BX if none does.
func pointer(b *bytes.Buffer, g *gp, arg func(string) string, p string) string {
	if r := g.ptrs[p]; r != "" {
		return r
	}
	fmt.Fprintf(b, "\tMOVQ %s, BX\n", arg(p))
	return "BX"
}

// pinLoads loads the register-held invariants of a loop that pick selects
// ahead of its row, fyz from fyz (a register or its frame slot).
func (t *table) pinLoads(b *bytes.Buffer, l *loop, g *gp, arg func(string) string, fyz string, pick func(string) bool) {
	for _, p := range l.pins {
		v := l.invs[p]
		if !pick(p) {
			continue
		}
		switch v.kind {
		case 'z':
			fmt.Fprintf(b, "\tVXORPS Y%[1]d, Y%[1]d, Y%[1]d\n", v.reg)
		case 'f':
			fmt.Fprintf(b, "\tVMOVUPS floor<>(SB), Y%d\n", v.reg)
		case 'p':
			fmt.Fprintf(b, "\tVMOVUPS %d(%s)(R13*1), Y%d // %s\n", 128*v.idx, pointer(b, g, arg, t.parity), v.reg, v.key)
		case 'y':
			if fyz != y(v.reg) {
				fmt.Fprintf(b, "\tVMOVUPS %s, Y%d\n", fyz, v.reg)
			}
		}
	}
}

// alpha forms a chunk's taper α = fx[i]·fyz ahead of a tapered loop's body
// (a cell's, in a scalar tail).
func (t *table) alpha(b *bytes.Buffer, l *loop, g *gp) {
	if !l.taper {
		return
	}
	a, fyz := l.invs["%α"].reg, "32(SP)"
	if r := l.invs["%fyz"].reg; r >= 0 {
		fyz = y(r)
	}
	r, fx := max(a, 0), fmt.Sprintf("(%s)(%s*1)", g.col, g.cursors[0])
	switch {
	case l.scalar && fyz[0] == 'Y':
		fmt.Fprintf(b, "\tVMULSS %s, X%s, X%d // α\n", fx, fyz[1:], r)
	case l.scalar:
		fmt.Fprintf(b, "\tVMOVSS %s, X%d\n\tVMULSS %s, X%d, X%d // α\n", fx, r, fyz, r, r)
	case l.tail:
		fmt.Fprintf(b, "\tVMASKMOVPS %s, Y%d, Y%d\n\tVMULPS %s, Y%d, Y%d // α\n", fx, l.mask, r, fyz, r, r)
	case fyz[0] == 'Y':
		fmt.Fprintf(b, "\tVMULPS %s, %s, Y%d // α\n", fx, fyz, r)
	default:
		fmt.Fprintf(b, "\tVMOVUPS %s, Y%d\n\tVMULPS %s, Y%d, Y%d // α\n", fx, r, fyz, r, r)
	}
	if a < 0 {
		fmt.Fprintf(b, "\tVMOVUPS Y%d, (SP)\n", r)
	}
}
