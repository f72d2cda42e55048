package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"slices"
	"strings"
)

// The walker is the cell program compiled to straight-line AVX2 code over
// eight lanes, once a loop: the full chunks and the tail (masked, or a cell
// at a time), untapered and, for a table with a taper, tapered. Each Go operation is one VEX
// instruction of one rounding, in the Go expression's association order and
// without FMA, so a lane stores the Go body's bits.

// A node is one value of the cell program on 8 lanes.
type node struct {
	op   byte // 'L' load, 'I' invariant, '+', '-', '*', 'Q' fd.Quiesce
	a, b *node
	win  *window
	inv  *inv

	uses  int
	bound bool // named by a local or stored, so read from a register
	fold  bool // a load its one user reads as its memory operand
	done  bool // placed in the sequence
	last  int  // the last step that reads it
	reg   int
}

// An inv is a value the same in every cell of a loop: a scalar, held in a
// register for the whole walk; or, in a register if the loop has one to
// spare and read from memory if not, +0, the Quiesce floor, an x-parity
// vector, the taper's per-row factor fyz and its per-chunk factor α.
type inv struct {
	key  string // the program's name, or %0, %floor, %α, %fyz
	kind byte   // 's' scalar, 'z' +0, 'f' floor, 'p' parity, 'a' α, 'y' fyz
	idx  int    // a parity vector's index in its table
	reg  int    // -1: read from memory
}

// A step is a node computed or a window stored.
type step struct {
	n     *node
	store *window
	text  string // the Go statement it starts, as a comment
}

// build turns the cell program into steps, with each value placed when its
// statement evaluates it and its operands ordered so the larger subtree goes
// first. A window stored and read again is read from the stored register;
// only its last store is kept; with taper, a pretapered window's load is
// multiplied by α before the program reads it, and the tapered windows' last
// stores are multiplied by α (a tapered window the program does not store is
// loaded and stored at the end).
func (t *table) build(invs map[string]*inv, taper bool) ([]step, map[string]bool, error) {
	b := &builder{t: t, invs: invs, taper: taper, locals: map[string]*node{}, stored: map[*window]*node{},
		used: map[string]bool{"%α": taper, "%fyz": taper}}
	for _, s := range t.stmts {
		var text bytes.Buffer
		format.Node(&text, t.fset, s)
		b.text = strings.Join(strings.Fields(text.String()), " ")
		if err := b.stmt(s); err != nil {
			return nil, nil, fmt.Errorf("%s: %v", b.text, err)
		}
	}
	// Only a window's last store survives: its earlier values were read
	// back from registers.
	lastStore := map[*window]int{}
	for i, s := range b.seq {
		if s.store != nil {
			lastStore[s.store] = i
		}
	}
	var seq []step
	for i, s := range b.seq {
		if s.store != nil && lastStore[s.store] != i {
			if s.text != "" {
				seq = append(seq, step{text: s.text})
			}
			continue
		}
		if s.store != nil && taper && slices.Contains(t.tapered, s.store) {
			p := b.mk('*', s.n, b.inv("%α"))
			p.done = true
			seq = append(seq, step{n: p, text: s.text})
			s = step{n: p, store: s.store}
		}
		seq = append(seq, s)
	}
	if taper {
		for _, w := range t.tapered {
			if _, ok := lastStore[w]; !ok {
				l := &node{op: 'L', win: w, fold: true, done: true}
				p := b.mk('*', l, b.inv("%α"))
				p.done = true
				seq = append(seq, step{n: p, text: w.name + "[i] *= α"}, step{n: p, store: w})
			}
		}
	}
	for i, s := range seq {
		if n := s.n; n != nil {
			n.last = max(n.last, i)
			for _, o := range []*node{n.a, n.b} {
				if o != nil && s.store == nil {
					o.last = max(o.last, i)
				}
			}
		}
	}
	return seq, b.used, nil
}

type builder struct {
	t      *table
	invs   map[string]*inv
	taper  bool
	locals map[string]*node
	stored map[*window]*node
	used   map[string]bool // the invariants read
	seq    []step
	text   string
}

func (b *builder) inv(name string) *node {
	b.used[name] = true
	return &node{op: 'I', inv: b.invs[name], done: true}
}

func (b *builder) mk(op byte, x, y *node) *node {
	x.uses++
	if y != nil {
		y.uses++
	}
	return &node{op: op, a: x, b: y, last: -1}
}

func (b *builder) expr(e ast.Expr) (*node, error) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return b.expr(x.X)
	case *ast.Ident:
		if n := b.locals[x.Name]; n != nil {
			return n, nil
		}
		if b.invs[x.Name] != nil {
			return b.inv(x.Name), nil
		}
	case *ast.IndexExpr:
		if w := b.t.cell(x); w != nil {
			if n := b.stored[w]; n != nil {
				return n, nil
			}
			l := &node{op: 'L', win: w, last: -1}
			if b.taper && slices.Contains(b.t.pretapered, w) {
				// α·w, the load its right operand so that it folds.
				return b.mk('*', b.inv("%α"), l), nil
			}
			return l, nil
		}
	case *ast.CallExpr:
		name := ""
		switch f := x.Fun.(type) {
		case *ast.Ident:
			name = f.Name
		case *ast.SelectorExpr:
			name = f.Sel.Name
		}
		if len(x.Args) == 1 && (name == "float32" || name == "Quiesce") {
			a, err := b.expr(x.Args[0])
			if err != nil || name == "float32" {
				return a, err
			}
			b.used["%floor"] = true
			return b.mk('Q', a, nil), nil
		}
	case *ast.BinaryExpr:
		if x.Op == token.MUL {
			// 2·v is v+v, exactly.
			for _, p := range [][2]ast.Expr{{x.X, x.Y}, {x.Y, x.X}} {
				if l, ok := p[0].(*ast.BasicLit); ok && l.Value == "2" {
					v, err := b.expr(p[1])
					if err != nil {
						return nil, err
					}
					v.bound = true
					return b.mk('+', v, v), nil
				}
			}
		}
		op := map[token.Token]byte{token.ADD: '+', token.SUB: '-', token.MUL: '*'}[x.Op]
		if op == 0 {
			break
		}
		l, err := b.expr(x.X)
		if err != nil {
			return nil, err
		}
		r, err := b.expr(x.Y)
		if err != nil {
			return nil, err
		}
		return b.mk(op, l, r), nil
	}
	return nil, fmt.Errorf("cannot compile %T %v", e, e)
}

func (b *builder) stmt(s ast.Stmt) error {
	if d, ok := s.(*ast.DeclStmt); ok {
		// var a, b float32: each starts at +0.
		for _, sp := range d.Decl.(*ast.GenDecl).Specs {
			for _, n := range sp.(*ast.ValueSpec).Names {
				b.locals[n.Name] = b.inv("%0")
			}
		}
		return nil
	}
	a, ok := s.(*ast.AssignStmt)
	if !ok {
		return fmt.Errorf("cannot compile %T", s)
	}
	var vals []*node
	if op, ok := map[token.Token]byte{token.ADD_ASSIGN: '+', token.SUB_ASSIGN: '-', token.MUL_ASSIGN: '*'}[a.Tok]; ok {
		cur, err := b.expr(a.Lhs[0])
		if err != nil {
			return err
		}
		r, err := b.expr(a.Rhs[0])
		if err != nil {
			return err
		}
		vals = append(vals, b.mk(op, cur, r))
	} else {
		for _, e := range a.Rhs {
			v, err := b.expr(e)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
	}
	if len(vals) != len(a.Lhs) {
		return fmt.Errorf("assignment count mismatch")
	}
	for _, v := range vals {
		v.bound = true
		b.place(v)
	}
	for i, l := range a.Lhs {
		if w := b.t.cell(l); w != nil {
			vals[i].uses++
			b.seq = append(b.seq, step{n: vals[i], store: w, text: b.text})
			b.text = ""
			b.stored[w] = vals[i]
		} else if id, ok := l.(*ast.Ident); ok {
			b.locals[id.Name] = vals[i]
		} else {
			return fmt.Errorf("cannot assign to %T", l)
		}
	}
	return nil
}

func commutes(op byte) bool { return op == '+' || op == '*' }

// foldable reports whether n is a load its one user can read as a memory
// operand, which it does when n is its right operand. (Folding a left
// operand too, swapped into place, read 2 % slower on the interior walkers.)
func foldable(n *node) bool { return n.op == 'L' && !n.done && !n.bound && n.uses == 1 }

// need is the number of registers evaluating n takes (Sethi–Ullman).
func need(n *node) int {
	if n.done {
		return 0
	}
	switch n.op {
	case 'L':
		return 1
	case 'Q':
		return max(need(n.a), 2)
	}
	na, nb := need(n.a), need(n.b)
	if foldable(n.b) {
		nb = 0
	}
	if na == nb {
		return max(na+1, 1)
	}
	return max(na, nb)
}

// place appends n's computation, operands first, the costlier one first.
func (b *builder) place(n *node) {
	if n.done {
		return
	}
	n.done = true
	if n.op == 'Q' {
		b.place(n.a)
	} else if n.op != 'L' {
		n.b.fold = foldable(n.b)
		first, second := n.a, n.b
		if need(n.b) > need(n.a) {
			first, second = n.b, n.a
		}
		for _, o := range []*node{first, second} {
			if !o.fold {
				b.place(o)
			}
		}
		n.b.done = true
	}
	b.seq = append(b.seq, step{n: n, text: b.text})
	b.text = ""
}
