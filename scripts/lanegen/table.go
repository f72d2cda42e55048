package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"slices"
	"strings"
)

// A table is one body: the arrays it reads and writes, grouped by the grid
// whose strides step them; its windows, each an array at a fixed offset
// from the row's first cell; the scalars and the x-parity table it reads;
// the windows a taper multiplies; and its cell program, Go statements over
// cell i in evaluation order.
type table struct {
	pkg    string // package the body is generated into
	body   string // the Go row body's name
	walker string // the 8-lane walker's name
	doc    string // what the body computes, for both functions' comments

	// grids lists the body's grids: each name n gives the Go body the int
	// parameters n0 (the tile's first cell), ny and nz (its row and plane
	// strides), and the arrays stepped by them.
	grids []grid
	ints  string // further int parameters the window offsets use

	scalars string // float32 parameters, each on 8 lanes in a register

	// parity, when set, is a *[K][4][8]float32 table and parityVals its K
	// names: for the row's (j, k) parity t relative to the tile's first row,
	// name q is lane vector [q][t], whose lanes alternate the row's two
	// values with the x parity of the cell, from the row's first.
	parity     string
	parityVals string

	// windows is "name=array" or "name=array+offset" (offset a Go
	// expression in the grid's strides and ints), space separated: window
	// name is array's values from the row's first cell plus offset.
	windows string

	// taper lists windows multiplied by fx[i]·(fy[j]·fz[k]) after the cell
	// program when the taper is on (fx non-nil): the Go body damps the row
	// after its loop, the walker multiplies at the window's last store.
	taper string
	// pretaper lists windows multiplied by the same factor before the cell
	// program reads them: the Go body damps the row ahead of its loop, the
	// walker multiplies each load of the window by α before its first use.
	pretaper string

	program string // the cell program; window w's cell is w[i]

	// scalarTail runs a row's n mod 8 tail a cell at a time on the low
	// lanes instead of as one masked chunk: for a program so short that the
	// masked loads and stores cost more than the cells (the sponge's).
	scalarTail bool

	// Parsed.
	gridOf     map[string]*grid // array → grid
	wins       []*window
	winOf      map[string]*window
	tapered    []*window
	pretapered []*window
	stmts      []ast.Stmt
	fset       *token.FileSet
}

type grid struct {
	name   string
	arrays string
}

type window struct {
	name, array, off string
	grid             *grid
	stored           bool
}

func (t *table) parse() error {
	t.gridOf, t.winOf, t.wins, t.tapered, t.pretapered = map[string]*grid{}, map[string]*window{}, nil, nil, nil
	for i := range t.grids {
		for _, a := range strings.Fields(t.grids[i].arrays) {
			t.gridOf[a] = &t.grids[i]
		}
	}
	for _, spec := range strings.Fields(t.windows) {
		name, rest, ok := strings.Cut(spec, "=")
		arr, off := rest, ""
		if i := strings.IndexAny(rest, "+-"); i >= 0 {
			arr, off = rest[:i], rest[i:]
		}
		g := t.gridOf[arr]
		if !ok || g == nil || t.winOf[name] != nil {
			return fmt.Errorf("window %q: want a new name=array[+offset] on a grid's array", spec)
		}
		w := &window{name: name, array: arr, off: off, grid: g}
		t.wins = append(t.wins, w)
		t.winOf[name] = w
	}
	for _, name := range strings.Fields(t.taper) {
		if t.winOf[name] == nil {
			return fmt.Errorf("taper names no window %q", name)
		}
		t.tapered = append(t.tapered, t.winOf[name])
	}
	for _, name := range strings.Fields(t.pretaper) {
		if t.winOf[name] == nil {
			return fmt.Errorf("pretaper names no window %q", name)
		}
		t.pretapered = append(t.pretapered, t.winOf[name])
	}
	if t.scalarTail && t.parity != "" {
		return fmt.Errorf("a scalar tail cannot read the x-parity table's lanes")
	}
	t.fset = token.NewFileSet()
	var err error
	if t.stmts, err = t.statements(); err != nil {
		return err
	}
	// A window the program stores must be its array's only window, so no
	// other window of the program reads the cell it writes.
	for _, s := range t.stmts {
		if a, ok := s.(*ast.AssignStmt); ok {
			for _, l := range a.Lhs {
				if w := t.cell(l); w != nil {
					w.stored = true
				}
			}
		}
	}
	for _, w := range t.wins {
		for _, o := range t.wins {
			if (w.stored || t.damps(w)) && o != w && o.array == w.array {
				return fmt.Errorf("window %s writes array %s, which window %s reads", w.name, w.array, o.name)
			}
		}
	}
	return nil
}

// tapers reports whether the table takes a taper, on its loads or on its
// stores.
func (t *table) tapers() bool { return t.taper != "" || t.pretaper != "" }

// damps reports whether the taper multiplies window w.
func (t *table) damps(w *window) bool {
	return slices.Contains(t.tapered, w) || slices.Contains(t.pretapered, w)
}

// statements parses the cell program.
func (t *table) statements() ([]ast.Stmt, error) {
	f, err := parser.ParseFile(t.fset, "", "package p\nfunc f() {\n"+t.program+"\n}\n", 0)
	if err != nil {
		return nil, err
	}
	return f.Decls[0].(*ast.FuncDecl).Body.List, nil
}

// cell returns the window e reads or writes, e being w[i]; nil if e is not.
func (t *table) cell(e ast.Expr) *window {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return nil
	}
	x, ok1 := ix.X.(*ast.Ident)
	i, ok2 := ix.Index.(*ast.Ident)
	if !ok1 || !ok2 || i.Name != "i" {
		return nil
	}
	return t.winOf[x.Name]
}

// winNames returns the windows' names in parameter order.
func (t *table) winNames() []string {
	var ns []string
	for _, w := range t.wins {
		ns = append(ns, w.name)
	}
	return ns
}

// arrays returns the body's arrays in parameter order.
func (t *table) arrays() []string {
	var as []string
	for _, g := range t.grids {
		as = append(as, strings.Fields(g.arrays)...)
	}
	return as
}

// unfused returns s with every product that is not itself a factor of a
// product wrapped in float32(…): the conversion forbids fusing the product
// with the sum it feeds (the Go spec, "Floating-point operators"), which
// arm64's compiler otherwise does, so the Go body rounds each product as
// the walker does. On amd64 the conversion emits nothing.
func unfused(s ast.Stmt) ast.Stmt {
	var wrap func(e ast.Expr, inProduct bool) ast.Expr
	wrap = func(e ast.Expr, inProduct bool) ast.Expr {
		switch x := e.(type) {
		case *ast.ParenExpr:
			x.X = wrap(x.X, inProduct)
		case *ast.CallExpr:
			for i := range x.Args {
				x.Args[i] = wrap(x.Args[i], false)
			}
		case *ast.BinaryExpr:
			mul := x.Op == token.MUL
			x.X, x.Y = wrap(x.X, mul), wrap(x.Y, mul)
			if mul && !inProduct {
				return &ast.CallExpr{Fun: ast.NewIdent("float32"), Args: []ast.Expr{x}}
			}
		}
		return e
	}
	if a, ok := s.(*ast.AssignStmt); ok {
		for i := range a.Rhs {
			a.Rhs[i] = wrap(a.Rhs[i], a.Tok == token.MUL_ASSIGN)
		}
	}
	return s
}

// goRows writes the Go row bodies of package pkg's tables.
func goRows(pkg string, ts []*table) ([]byte, error) {
	var b bytes.Buffer
	usesFd := false
	for _, t := range ts {
		usesFd = usesFd || strings.Contains(t.program, "fd.")
	}
	fmt.Fprintf(&b, "%s\n\npackage %s\n\n", header, pkg)
	if usesFd {
		fmt.Fprintf(&b, "import \"repro/internal/core/fd\"\n\n")
	}
	fmt.Fprintf(&b, `// The row bodies of the tile sweeps. Each walks a tile of nk planes of nj
// rows of ni cells through one length-ni window a row per array and offset,
// w := a[n+off:][:ni], so that with i < ni == len(w) the compiler proves every
// per-cell index in bounds (scripts/check_bce.sh guards this file). With vec
// it slices each window once over its span across the whole tile and hands
// the tile to its 8-lane walker (walkers_gen_amd64.s), which stores the same
// bits.
`)
	for _, t := range ts {
		if err := t.goBody(&b); err != nil {
			return nil, err
		}
	}
	return gofmt(b.Bytes())
}

const header = "// Code generated by lanegen from its tables (scripts/lanegen); DO NOT EDIT."

// fill joins items with sep, starting a new line (then indent) before an
// item that would run past column width of text that starts at column
// col, a tab being 8 columns.
func fill(items []string, sep, indent string, col, width int) string {
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteString(strings.TrimRight(sep, " "))
			if col+len(sep)+len(it) > width {
				b.WriteString("\n" + indent)
				col = len(indent) + 7*strings.Count(indent, "\t")
			} else {
				b.WriteString(" ")
				col += len(sep)
			}
		}
		b.WriteString(it)
		col += len(it)
	}
	return b.String()
}

func gofmt(src []byte) ([]byte, error) {
	out, err := format.Source(src)
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, src)
	}
	return out, nil
}

// goParams returns the Go body's parameter list.
func (t *table) goParams() string {
	ps := []string{"ni, nj, nk int"}
	for _, g := range t.grids {
		ps = append(ps, fmt.Sprintf("%[1]s0, %[1]sy, %[1]sz int", g.name))
	}
	if t.ints != "" {
		ps = append(ps, strings.Join(strings.Fields(t.ints), ", ")+" int")
	}
	if t.scalars != "" {
		ps = append(ps, strings.Join(strings.Fields(t.scalars), ", ")+" float32")
	}
	ps = append(ps, strings.Join(t.arrays(), ", ")+" []float32")
	if t.parity != "" {
		ps = append(ps, fmt.Sprintf("%s *[%d][4][8]float32", t.parity, len(strings.Fields(t.parityVals))))
	}
	if t.tapers() {
		ps = append(ps, "fx, fy, fz []float32")
	}
	return fill(append(ps, "vec bool"), ", ", "\t", 6+len(t.body), 100)
}

func (t *table) goBody(b *bytes.Buffer) error {
	first := t.wins[0].name
	doc := fmt.Sprintf("%s runs %s over a tile of nk planes of nj rows of ni cells: the cell program of its table, cell by cell in Go, or with vec the whole tile in one %s call.", t.body, t.doc, t.walker)
	fmt.Fprintf(b, "\n// %s\n", fill(strings.Fields(doc), " ", "// ", 3, 76))
	fmt.Fprintf(b, "func %s(%s) {\n", t.body, t.goParams())
	fmt.Fprintf(b, "if ni <= 0 || nj <= 0 || nk <= 0 {\nreturn\n}\n")
	// The vector path: each window sliced once over its span across the
	// tile, then the walker.
	fmt.Fprintf(b, "if vec {\n")
	for _, g := range t.grids {
		fmt.Fprintf(b, "%[1]sspan := (nj-1)*%[1]sy + (nk-1)*%[1]sz + ni\n", g.name)
	}
	args := []string{"ni", "nj", "nk"}
	for _, g := range t.grids {
		args = append(args, fmt.Sprintf("4*%[1]sy, 4*(%[1]sz-nj*%[1]sy)", g.name))
	}
	args = append(args, strings.Fields(t.scalars)...)
	if t.parity != "" {
		args = append(args, "&"+t.parity+"[0][0][0]")
	}
	for _, w := range t.wins {
		args = append(args, fmt.Sprintf("&%s[%s0%s:][:%sspan][:ni][0]", w.array, w.grid.name, w.off, w.grid.name))
	}
	if t.tapers() {
		fmt.Fprintf(b, "var px, py, pz *float32\nif fx != nil {\npx, py, pz = &fx[:ni][0], &fy[:nj][0], &fz[:nk][0]\n}\n")
		args = append(args, "px, py, pz")
	}
	fmt.Fprintf(b, "%s(%s)\nreturn\n}\n", t.walker, fill(args, ", ", "\t\t\t", 17+len(t.walker), 100))
	fmt.Fprintf(b, "for k := 0; k < nk; k++ {\nfor j := 0; j < nj; j++ {\n")
	for _, g := range t.grids {
		fmt.Fprintf(b, "%[1]s := %[1]s0 + j*%[1]sy + k*%[1]sz\n", g.name)
	}
	for _, w := range t.wins {
		fmt.Fprintf(b, "%s := %s[%s%s:][:ni]\n", w.name, w.array, w.grid.name, w.off)
	}
	t.dampRow(b, t.pretapered)
	// The Go loop.
	if len(t.stmts) > 0 {
		vals := strings.Fields(t.parityVals)
		if t.parity != "" {
			fmt.Fprintf(b, "t := (j&1 | (k&1)<<1) & 3\n")
			var rows []string
			for q := range vals {
				rows = append(rows, fmt.Sprintf("&%s[%d][t]", t.parity, q))
			}
			fmt.Fprintf(b, "%sT := %s\n", strings.Join(vals, "T, "), strings.Join(rows, ", "))
		}
		fmt.Fprintf(b, "for i := range %s {\n", first)
		if t.parity != "" {
			fmt.Fprintf(b, "%s := %sT[i&1]\n", strings.Join(vals, ", "), strings.Join(vals, "T[i&1], "))
		}
		stmts, err := t.statements() // a fresh parse: unfused rewrites it
		if err != nil {
			return err
		}
		for _, s := range stmts {
			if err := format.Node(b, t.fset, unfused(s)); err != nil {
				return err
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(b, "}\n")
	}
	t.dampRow(b, t.tapered)
	fmt.Fprintf(b, "}\n}\n}\n")
	return nil
}

// dampRow writes the Go body's pass that multiplies the row of each window
// of ws by fx[i]·(fy[j]·fz[k]) when the taper is on, the row factor formed
// first, as the sponge's row walker forms it.
func (t *table) dampRow(b *bytes.Buffer, ws []*window) {
	if len(ws) == 0 {
		return
	}
	fmt.Fprintf(b, "if fx != nil {\n")
	fmt.Fprintf(b, "if uint(j) >= uint(len(fy)) || uint(k) >= uint(len(fz)) {\npanic(\"%s: row outside the taper's windows\")\n}\n", t.pkg)
	fmt.Fprintf(b, "fyz := float32(fy[j] * fz[k])\nfor i, f := range fx[:ni] {\na := float32(f * fyz)\n")
	for _, w := range ws {
		fmt.Fprintf(b, "%s[i] *= a\n", w.name)
	}
	fmt.Fprintf(b, "}\n}\n")
}

// walkerArgs returns the walker's arguments in order: its ints, float32
// scalars and pointers.
func (t *table) walkerArgs() (ints, floats, ptrs []string) {
	ints = []string{"n", "nj", "nk"}
	for _, g := range t.grids {
		ints = append(ints, g.name+"row", g.name+"plane")
	}
	if t.parity != "" {
		ptrs = append(ptrs, t.parity)
	}
	ptrs = append(ptrs, t.winNames()...)
	if t.tapers() {
		ptrs = append(ptrs, "fx", "fy", "fz")
	}
	return ints, strings.Fields(t.scalars), ptrs
}

// frame returns the offsets of the walker's arguments in its ABI0 frame
// and their size.
func (t *table) frame() (map[string]int, int) {
	off, size := map[string]int{}, 0
	ints, floats, ptrs := t.walkerArgs()
	for _, a := range append(append(ints, floats...), ptrs...) {
		sz := 8
		if slices.Contains(floats, a) {
			sz = 4
		}
		size = (size + sz - 1) / sz * sz
		off[a] = size
		size += sz
	}
	return off, (size + 7) / 8 * 8
}

// walkerSig returns the walker's Go signature.
func (t *table) walkerSig() string {
	ints, floats, ptrs := t.walkerArgs()
	sig := fmt.Sprintf("func %s(%s int", t.walker, strings.Join(ints, ", "))
	if len(floats) > 0 {
		sig += fmt.Sprintf(", %s float32", strings.Join(floats, ", "))
	}
	return sig + fmt.Sprintf(",\n\t%s *float32)", fill(ptrs, ", ", "\t", 8, 76))
}

// goStubs writes the walkers' declarations on amd64 and their panicking
// stubs elsewhere.
func goStubs(pkg string, ts []*table, amd64 bool) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n\n", header)
	if !amd64 {
		fmt.Fprintf(&b, "//go:build !amd64\n\n")
	}
	fmt.Fprintf(&b, "package %s\n", pkg)
	for _, t := range ts {
		if !amd64 {
			fmt.Fprintf(&b, "\n%s {\n\tpanic(\"%s: no vector body on this platform\")\n}\n", t.walkerSig(), pkg)
			continue
		}
		tail := "under a lane mask"
		if t.scalarTail {
			tail = "one at a time"
		}
		doc := fmt.Sprintf("%s runs %s's cell program over a tile of nk planes of nj rows of n cells (none of them 0), eight lanes at a time and each row's last n mod 8 cells "+tail+". Each window is its array at the tile's first row; on a grid g, grow is the byte step a row and gplane the byte step a plane less nj rows. It reads and writes n values a row of each window and touches nothing else.", t.walker, t.body)
		if t.parity != "" {
			doc += fmt.Sprintf(" %s is the x-parity table, read at each row's (j, k) parity.", t.parity)
		}
		switch {
		case t.taper != "":
			doc += " With fx non-nil each tapered window's last store is multiplied by fx[i]·(fy[r]·fz[q]), reading n values at fx, nj at fy and nk at fz."
		case t.pretaper != "":
			doc += " With fx non-nil each pretapered window is multiplied by fx[i]·(fy[r]·fz[q]) as it is loaded, before the program reads it, reading n values at fx, nj at fy and nk at fz."
		}
		fmt.Fprintf(&b, "\n// %s\n", fill(strings.Fields(doc), " ", "// ", 3, 76))
		fmt.Fprintf(&b, "//\n//go:noescape\n%s\n", t.walkerSig())
	}
	out, err := gofmt(b.Bytes())
	if err != nil {
		panic(err)
	}
	return out
}
