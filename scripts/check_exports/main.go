// Command check_exports is the keep/kill guard. It type-checks the module
// from source with the standard library alone (go/build, go/parser,
// go/types: there is no golang.org/x/tools to lean on) and fails on
//
//   - a package under internal/, or awp, that no non-test file outside
//     bench/ imports;
//   - a package-level function, method, constant or variable, exported or
//     not, declared in a non-test file under internal/ that nothing
//     references except its own package's tests;
//   - an exported field of an exported package-level struct type declared
//     in a non-test file under internal/ that nothing sets except its own
//     package's tests (a setting only a test chooses is not a setting);
//   - a named unexported field of a package-level struct type declared
//     there that nothing reads, tests included.
//
// A reference, or a set, counts from a non-test file of any package,
// bench/ included, and from a test file of another package (a helper
// another package's tests use must be exported to be used). A method that
// implements an interface counts as referenced: a caller may hold the
// interface. awp, the public API, is only held to the package rule.
//
// A field is set by a composite-literal key or position, by being the
// target of an assignment or ++/-- or a prefix of it (x.F.G += 1 and
// x.F[i] = v set F), the operand of &, or the receiver of a pointer-method
// call or value. A default, x.F = d right under if x.F == 0 (or <= 0, or
// == nil), is no set. Every use but a composite-literal key or position
// and the whole target of = reads it: x.F += 1, &x.F and x.F.Lock() read F
// too.
//
// Usage, from the module root: go run ./scripts/check_exports
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	problems, err := check(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "check_exports:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Println("FAIL:", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Println("ok: every package under internal/, and awp, has a non-test importer outside bench/, every declaration under internal/ a caller, every exported field a setter beyond its own package's tests and every unexported field a reader")
}

// module is one type-checking pass over the module rooted at root.
type module struct {
	root, path string
	fset       *token.FileSet
	std        types.Importer
	dirs       map[string]*build.Package // by import path
	prod       map[string]*types.Package
	refs       map[string]string         // object key, or "set "/"read " + field position -> "prod" or "own" (own package's tests only)
	ifaces     map[*types.Interface]bool // see collectInterfaces
}

// check returns the module's failures, one line each, in package order.
func check(root string) ([]string, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{root: root, fset: token.NewFileSet(), dirs: map[string]*build.Package{},
		prod: map[string]*types.Package{}, refs: map[string]string{}, ifaces: map[*types.Interface]bool{}}
	m.path = strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(gomod), "\n", 2)[0], "module"))
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); dir != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		rel, _ := filepath.Rel(root, dir)
		m.dirs[filepath.ToSlash(filepath.Join(m.path, rel))] = bp
		return err
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(m.dirs))
	for p := range m.dirs {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		if _, err := m.Import(p); err != nil {
			return nil, err
		}
	}
	for _, p := range paths {
		bp := m.dirs[p]
		if len(bp.TestGoFiles) > 0 {
			if _, err := m.typeCheck(p, bp.Dir, slices.Concat(bp.GoFiles, bp.TestGoFiles)); err != nil {
				return nil, err
			}
		}
		if len(bp.XTestGoFiles) > 0 {
			if _, err := m.typeCheck(p+"_test", bp.Dir, bp.XTestGoFiles); err != nil {
				return nil, err
			}
		}
	}
	m.collectInterfaces()
	var problems []string
	for _, p := range paths {
		rel := strings.TrimPrefix(p, m.path+"/")
		if rel == "awp" || strings.HasPrefix(rel, "internal/") {
			if !m.imported(p) {
				problems = append(problems, rel+": no non-test importer outside bench/")
			}
		}
		if strings.HasPrefix(rel, "internal/") {
			problems = append(problems, m.unreferenced(m.prod[p])...)
			problems = append(problems, m.fields(m.prod[p])...)
		}
	}
	return problems, nil
}

// Import type-checks a module package from its non-test files, or hands a
// standard-library path to the source importer.
func (m *module) Import(path string) (*types.Package, error) {
	if pkg := m.prod[path]; pkg != nil {
		return pkg, nil
	}
	bp := m.dirs[path]
	if bp == nil {
		return m.std.Import(path)
	}
	pkg, err := m.typeCheck(path, bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	m.prod[path] = pkg
	return pkg, nil
}

// typeCheck checks the named files of dir as package path and records
// what their identifiers reference. A test package is checked against the
// production packages it imports, so its references name their objects.
func (m *module) typeCheck(path, dir string, names []string) (*types.Package, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, n), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		test := strings.HasSuffix(m.fset.Position(f.Pos()).Filename, "_test.go")
		mark := func(k string, obj types.Object) {
			switch {
			case !test || obj.Pkg().Path() != strings.TrimSuffix(path, "_test"):
				m.refs[k] = "prod"
			case m.refs[k] == "":
				m.refs[k] = "own"
			}
		}
		for _, d := range f.Decls {
			self := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = key(info.Defs[fd.Name])
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if k := key(info.Uses[id]); k != "" && k != self {
					mark(k, info.Uses[id])
				}
				return true
			})
			for v, how := range fieldUses(d, info) {
				for bit, word := range map[int]string{set: "set ", read: "read "} {
					if how&bit != 0 {
						mark(word+m.pos(v), v)
					}
				}
			}
		}
	}
	return pkg, nil
}

const (
	set = 1 << iota
	read
)

// fieldUses returns how the code in n uses each field it names, as the
// package comment defines set and read.
func fieldUses(n ast.Node, info *types.Info) map[*types.Var]int {
	uses := map[*types.Var]int{}
	targets := map[*ast.Ident]int{} // field names a set reaches, and how
	fills := map[ast.Stmt]bool{}    // defaults: x.F = d under if x.F == 0 (or <= 0)
	target := func(e ast.Expr, how int) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				targets[x.Sel] |= how
				e, how = x.X, set|read
			case *ast.IndexExpr:
				e, how = x.X, set|read
			case *ast.StarExpr:
				e, how = x.X, set|read
			default:
				return
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			c, _ := x.Cond.(*ast.BinaryExpr)
			if c == nil || (c.Op != token.EQL && c.Op != token.LEQ) || !slices.Contains([]string{"0", `""`, "nil"}, types.ExprString(c.Y)) {
				break
			}
			for _, st := range x.Body.List {
				if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && types.ExprString(as.Lhs[0]) == types.ExprString(c.X) {
					fills[as] = true
				}
			}
		case *ast.AssignStmt:
			if fills[x] {
				break // a default is not a setting: the field reads as set nowhere
			}
			for _, lhs := range x.Lhs {
				target(lhs, map[bool]int{true: set, false: set | read}[x.Tok == token.ASSIGN])
			}
		case *ast.IncDecStmt:
			target(x.X, set|read)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				target(x.X, set|read)
			}
		case *ast.SelectorExpr: // a pointer method on an addressable value takes its address
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal {
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				if _, ptr := sel.Recv().Underlying().(*types.Pointer); ptrRecv && !ptr {
					target(x.X, set|read)
				}
			}
		case *ast.CompositeLit:
			if st, ok := info.Types[x].Type.Underlying().(*types.Struct); ok {
				for i, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						targets[kv.Key.(*ast.Ident)] |= set
					} else {
						uses[st.Field(i)] |= set
					}
				}
			}
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && v.IsField() {
				if how, ok := targets[x]; ok {
					uses[v] |= how
				} else {
					uses[v] |= read
				}
			}
		}
		return true
	})
	return uses
}

// pos names a field by its file, line and column, which are the same in
// every type-checking pass that includes its file.
func (m *module) pos(obj types.Object) string { return m.fset.Position(obj.Pos()).String() }

// fields lists the fields of pkg's package-level struct types that fail a
// field rule: an exported field of an exported type that only its own
// package's tests, or nothing, set, and a named unexported field that
// nothing reads.
func (m *module) fields(pkg *types.Package) []string {
	var out []string
	for _, name := range pkg.Scope().Names() {
		tn, _ := pkg.Scope().Lookup(name).(*types.TypeName)
		if tn == nil || tn.IsAlias() {
			continue
		}
		st, _ := tn.Type().Underlying().(*types.Struct)
		for i := 0; st != nil && i < st.NumFields(); i++ {
			v, why := st.Field(i), ""
			switch set := m.refs["set "+m.pos(v)]; {
			case v.Embedded() || v.Name() == "_":
			case v.Exported() && tn.Exported() && set == "":
				why = "nothing sets it"
			case v.Exported() && tn.Exported() && set == "own":
				why = "only its own package's tests set it"
			case !v.Exported() && m.refs["read "+m.pos(v)] == "":
				why = "nothing reads it"
			}
			if why != "" {
				out = append(out, m.where(v, pkg.Name()+"."+name+"."+v.Name(), why))
			}
		}
	}
	return out
}

// imported reports whether a non-test package outside bench/ imports path.
func (m *module) imported(path string) bool {
	for p, bp := range m.dirs {
		if p == m.path+"/bench" || strings.HasPrefix(p, m.path+"/bench/") {
			continue
		}
		if slices.Contains(bp.Imports, path) {
			return true
		}
	}
	return false
}

// unreferenced lists pkg's package-level functions, methods, constants and
// variables that only its own tests, or nothing, reference.
func (m *module) unreferenced(pkg *types.Package) []string {
	var objs []types.Object
	for _, name := range pkg.Scope().Names() {
		switch obj := pkg.Scope().Lookup(name).(type) {
		case *types.Func, *types.Const, *types.Var:
			objs = append(objs, obj)
		case *types.TypeName:
			if named, ok := obj.Type().(*types.Named); ok && !types.IsInterface(named) {
				for i := 0; i < named.NumMethods(); i++ {
					if !m.implements(named, named.Method(i).Name()) {
						objs = append(objs, named.Method(i))
					}
				}
			}
		}
	}
	var out []string
	for _, obj := range objs {
		why := "nothing references it"
		switch m.refs[key(obj)] {
		case "prod":
			continue
		case "own":
			why = "only its own package's tests reference it"
		}
		out = append(out, m.where(obj, pkg.Name()+"."+strings.TrimPrefix(key(obj), pkg.Path()+"."), why))
	}
	return out
}

// where formats one failure: the declaration's file and line, its name and
// why it fails.
func (m *module) where(obj types.Object, name, why string) string {
	pos := m.fset.Position(obj.Pos())
	file, _ := filepath.Rel(m.root, pos.Filename)
	return fmt.Sprintf("%s:%d: %s: %s", filepath.ToSlash(file), pos.Line, name, why)
}

// collectInterfaces adds error, the errors package's unnamed interfaces,
// and the interfaces declared in every package the module's production
// code reaches, standard library included.
func (m *module) collectInterfaces() {
	for _, src := range []string{"error", "interface{ Unwrap() error }", "interface{ Unwrap() []error }", "interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, _ := types.Eval(m.fset, nil, token.NoPos, src)
		m.ifaces[tv.Type.Underlying().(*types.Interface)] = true
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				m.ifaces[tn.Type().Underlying().(*types.Interface)] = true
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range m.prod {
		walk(p)
	}
}

// implements reports whether T or *T implements one of the collected
// interfaces that has a method called name.
func (m *module) implements(t *types.Named, name string) bool {
	for it := range m.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// key names a package-level object or method the same way in the
// production package and in the copy of it that its in-package tests are
// checked with, and anything else (a local, a field, a universe name) "".
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		t := f.Origin().Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return obj.Pkg().Path() + "." + types.TypeString(t, types.RelativeTo(obj.Pkg())) + "." + obj.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
