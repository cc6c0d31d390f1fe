package quhe_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// productionAllowlist names the package-level functions and methods that
// stay in production files although no production code calls them, each
// with the reason it stays. Keys read pkg.Name or pkg.Recv.Name. An entry
// is a root of the scan, so what it calls needs no entry of its own.
var productionAllowlist = map[string]string{
	"ckks.MatVecPlan.Dim":       "CKKS op API: the dimension a plan was built for, which sizes its rotation keys",
	"edge.Server.DebugAddr":     "operator API: with DebugAddr \":0\" it is the only way to learn the debug plane's port",
	"ring.Modulus.LazySumTerms": "the lazy-sum bound the ring and ckks tests size their worst cases by",
	"mathutil.VecApproxEqual":   "comparison helper the mathutil and optimize tests share",
}

// TestProductionCodeHasCallers fails on any non-test function or method
// that production code does not reach and productionAllowlist does not
// name, and on any allowlist entry that is gone or that production code or
// another entry reaches.
func TestProductionCodeHasCallers(t *testing.T) {
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range prog.unreachable(productionAllowlist) {
		t.Errorf("%s has no production caller: delete it, move it into the test that uses it, or allowlist it with a reason", name)
	}
	for name := range productionAllowlist {
		others := maps.Clone(productionAllowlist)
		delete(others, name)
		if !slices.Contains(prog.unreachable(others), name) {
			t.Errorf("allowlist entry %s is stale: production code or another entry reaches it, or it is gone", name)
		}
	}
}

// TestDeadcodeFixture runs the scan on a fixture whose main calls one
// function, reads a field named like a function it never calls, and calls
// two methods only through interfaces, one named and one anonymous. Of its
// other functions, one is never called and one is called only by the
// never-called one. Those two and the namesake of the field must be
// flagged; the methods called through interfaces must not.
func TestDeadcodeFixture(t *testing.T) {
	prog, err := loadProgram(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	dead := prog.unreachable(nil)
	want := []string{"deadcode.calledOnlyByDead", "deadcode.neverCalled", "deadcode.size"}
	if !slices.Equal(dead, want) {
		t.Fatalf("unreachable = %v, want %v", dead, want)
	}
}

// program is the type-checked non-test code under a root directory.
type program struct {
	info   *types.Info
	funcs  map[*types.Func]*ast.FuncDecl // every package-level function and method
	keys   map[*types.Func]string        // pkg.Name or pkg.Recv.Name
	roots  []ast.Node                    // main, init and the package-level var and const declarations
	ifaces map[string]bool               // the method names some interface declares
}

// loadProgram parses every non-test .go file under root, skipping testdata
// and dot directories, and type-checks each directory as one package. The
// module's own imports resolve to these packages and the rest to the
// standard library, type-checked from source, so each function has one
// object however many packages use it.
func loadProgram(root string) (*program, error) {
	fset := token.NewFileSet()
	module := "main"
	if gomod, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
		for _, line := range strings.Split(string(gomod), "\n") {
			if name, ok := strings.CutPrefix(line, "module "); ok {
				module = strings.TrimSpace(name)
			}
		}
	}
	files := map[string][]*ast.File{} // by import path
	pkgKey := map[string]string{}     // by import path: the directory's name, or the package's at the root
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		importPath, key := module, filepath.Base(filepath.Dir(path))
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		if key == "." {
			key = f.Name.Name
		}
		files[importPath] = append(files[importPath], f)
		pkgKey[importPath] = key
		return nil
	})
	if err != nil {
		return nil, err
	}

	p := &program{
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		funcs:  map[*types.Func]*ast.FuncDecl{},
		keys:   map[*types.Func]string{},
		ifaces: map[string]bool{},
	}
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		if files[path] == nil {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files[path], p.info)
		checked[path] = pkg
		return pkg, err
	}
	for path := range files {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}

	for path, pkgFiles := range files {
		for _, f := range pkgFiles {
			for _, decl := range f.Decls {
				p.index(pkgKey[path], decl)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					p.addInterface(p.info.TypeOf(it))
				}
				return true
			})
		}
	}
	seen := map[*types.Package]bool{}
	var addScope func(pkg *types.Package)
	addScope = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				p.addInterface(tn.Type())
			}
		}
		for _, dep := range pkg.Imports() {
			addScope(dep)
		}
	}
	for _, pkg := range checked {
		addScope(pkg)
	}
	p.addInterface(types.Universe.Lookup("error").Type())
	return p, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// index records one package-level declaration of the package keyed pkg.
func (p *program) index(pkg string, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
			p.roots = append(p.roots, d)
			return
		}
		fn := p.info.Defs[d.Name].(*types.Func)
		p.funcs[fn] = d
		p.keys[fn] = pkg + "." + d.Name.Name
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			p.keys[fn] = pkg + "." + recvName(recv.Type()) + "." + d.Name.Name
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				p.roots = append(p.roots, vs)
			}
		}
	}
}

// addInterface records the method names of t if t is an interface.
func (p *program) addInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := range it.NumMethods() {
			p.ifaces[it.Method(i).Name()] = true
		}
	}
}

// recvName returns the name of a receiver's type, without pointer or type
// arguments.
func recvName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// unreachable returns the sorted keys of the functions and methods that
// nothing reachable uses. A function is reached when main, init, a
// package-level var or const declaration, a reached function or a root
// that extra names uses its object. A method is also reached when reached
// code converts a value of its receiver type to an interface and some
// interface, the standard library's included, declares a method of its
// name: a call through an interface can then land on it. A reference from
// an unreachable function counts for nothing. Reflection into the fields
// of a converted value is not followed, so a method that only fmt or
// encoding/json calls on a held value is flagged and needs an entry.
func (p *program) unreachable(extra map[string]string) []string {
	reached := map[*types.Func]bool{}
	work := slices.Clone(p.roots)
	reach := func(fn *types.Func) {
		if decl := p.funcs[fn]; decl != nil && !reached[fn] {
			reached[fn] = true
			work = append(work, decl)
		}
	}
	converted := map[types.Type]bool{}
	convert := func(t types.Type) {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if converted[t] || types.IsInterface(t) {
			return
		}
		converted[t] = true
		mset := types.NewMethodSet(types.NewPointer(t))
		for i := range mset.Len() {
			if fn := mset.At(i).Obj().(*types.Func); p.ifaces[fn.Name()] {
				reach(fn.Origin())
			}
		}
	}
	for fn, key := range p.keys {
		if extra[key] != "" {
			reach(fn)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := p.info.Uses[id].(*types.Func); ok {
					reach(fn.Origin())
				}
				return true
			}
			p.conversions(n, convert)
			return true
		})
	}
	var dead []string
	for fn, key := range p.keys {
		if !reached[fn] {
			dead = append(dead, key)
		}
	}
	slices.Sort(dead)
	return dead
}

// conversions calls convert with the type of each concrete value that n
// converts to an interface: a call's argument or a conversion's operand, an
// assigned or declared value, a returned value, a composite literal's
// element and a sent value.
func (p *program) conversions(n ast.Node, convert func(types.Type)) {
	pair := func(from, to types.Type) {
		if from != nil && to != nil && types.IsInterface(to) && !types.IsInterface(from) {
			convert(from)
		}
	}
	// assign pairs values with the types to(i) they are assigned to; a
	// single value may be a call that returns several.
	assign := func(values []ast.Expr, to func(i int) types.Type) {
		if len(values) == 1 {
			if tuple, ok := p.info.TypeOf(values[0]).(*types.Tuple); ok {
				for i := range tuple.Len() {
					pair(tuple.At(i).Type(), to(i))
				}
				return
			}
		}
		for i, v := range values {
			pair(p.info.TypeOf(v), to(i))
		}
	}
	returns := func(body *ast.BlockStmt, sig *types.Signature) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				assign(n.Results, func(i int) types.Type { return sig.Results().At(i).Type() })
			}
			return true
		})
	}
	switch n := n.(type) {
	case *ast.CallExpr:
		tv := p.info.Types[n.Fun]
		if tv.IsType() {
			assign(n.Args, func(int) types.Type { return tv.Type })
			return
		}
		if tv.Type == nil {
			return
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		params := sig.Params()
		assign(n.Args, func(i int) types.Type {
			if last := params.Len() - 1; sig.Variadic() && i >= last && !n.Ellipsis.IsValid() {
				return params.At(last).Type().(*types.Slice).Elem()
			}
			return params.At(i).Type()
		})
	case *ast.AssignStmt:
		assign(n.Rhs, func(i int) types.Type { return p.info.TypeOf(n.Lhs[i]) })
	case *ast.ValueSpec:
		assign(n.Values, func(i int) types.Type { return p.info.TypeOf(n.Names[i]) })
	case *ast.FuncDecl:
		if n.Body != nil {
			returns(n.Body, p.info.Defs[n.Name].Type().(*types.Signature))
		}
	case *ast.FuncLit:
		returns(n.Body, p.info.TypeOf(n).(*types.Signature))
	case *ast.SendStmt:
		pair(p.info.TypeOf(n.Value), p.info.TypeOf(n.Chan).Underlying().(*types.Chan).Elem())
	case *ast.CompositeLit:
		switch u := p.info.TypeOf(n).Underlying().(type) {
		case *types.Struct:
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					pair(p.info.TypeOf(kv.Value), p.info.TypeOf(kv.Key))
				} else {
					pair(p.info.TypeOf(elt), u.Field(i).Type())
				}
			}
		case *types.Map:
			for _, elt := range n.Elts {
				kv := elt.(*ast.KeyValueExpr)
				pair(p.info.TypeOf(kv.Key), u.Key())
				pair(p.info.TypeOf(kv.Value), u.Elem())
			}
		case interface{ Elem() types.Type }: // slice or array
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				pair(p.info.TypeOf(elt), u.Elem())
			}
		}
	}
}
