package smoke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the funcs under internal/ that production code
// does not reach but that several packages' tests share as an oracle or
// a fault injector, and the fields production writes but does not yet
// read. An entry is removed as soon as production reaches its func or
// field or no test needs it; one is added only with its reason. A field
// a test reads as its window onto production is not listed: the test
// reads a production observable instead.
var reachAllowlist = map[string]string{
	"painter/internal/tm PoPConfig.PoPID":          "set by the benchmark's tm rigs, which only a benchmark change may edit; it goes with that change",
	"painter/internal/netsim World.probeLossF":     "the probe-loss overlay EventProbeLoss writes, until ROADMAP item 26 decides EventProbeLoss",
	"painter/internal/obs ParseText":               "scrape oracle: the obs, controlapi and smoke tests parse /metrics expositions with it",
	"painter/internal/advertise Config.Validate":   "config invariant the advertise, core and chaos tests assert on the configurations they build, until an installer checks every config it sends",
	"painter/internal/netsim/emul Link.SetLossPct": "fault injection for the tm tests over emulated links, until one chaos schedule drives the data plane",
	"painter/internal/netsim/emul Link.SetFilter":  "fault injection for the tm tests over emulated links, until one chaos schedule drives the data plane",
	"painter/internal/netsim/emul Link.Rebind":     "fault injection for the tm tests over emulated links, until one chaos schedule drives the data plane",
	"painter/internal/bgp Result.Bytes":            "canonical encoding of a route selection that the bgp, netsim, core and chaos determinism tests compare and hash",
}

// TestReachabilityGate holds every func and method declared in a
// non-test file of the root module to code that production reaches:
// some non-test file of the root module or of bench/ must refer to it,
// or it must implement, on a type production refers to, an interface
// production uses. Funcs that only tests call are test code and belong
// in a _test.go file. Every named struct field declared there must be
// read by such a file (unreadFields); a field only written is deleted
// with the work that computes it.
func TestReachabilityGate(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	pkgs := loadReach(t, fset, root, filepath.Join(root, "bench"))
	unused := maps.Clone(reachAllowlist)
	for _, f := range unreached(pkgs) {
		if _, ok := unused[f.key]; ok {
			delete(unused, f.key)
			continue
		}
		t.Errorf("%s: %s is reached by no production code (delete it, or move it into the _test.go file of the package whose tests use it)",
			relPos(root, fset.Position(f.pos)), f.key)
	}
	for _, f := range unreadFields(pkgs) {
		if _, ok := unused[f.key]; ok {
			delete(unused, f.key)
			continue
		}
		t.Errorf("%s: field %s is read by no production code (delete it with whatever computes it)",
			relPos(root, fset.Position(f.pos)), f.key)
	}
	for k := range unused {
		t.Errorf("reachAllowlist lists %s, which production now reaches or which no longer exists: drop the entry", k)
	}
}

// TestReachabilityFixture pins the gate's rules on the planted module
// under testdata/reach: the exact set of findings, no more, no less.
func TestReachabilityFixture(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := loadReach(t, fset, filepath.Join(repoRoot(t), "internal", "smoke", "testdata", "reach"))
	var got []string
	for _, f := range unreached(pkgs) {
		got = append(got, f.key)
	}
	// Everything else in the module is reached: Meter.Add, NewServer and
	// Server.Serve by direct calls from main, Meter.String through
	// fmt.Stringer, level.Set and level.String through flag.Var, queue's
	// five methods through heap.Interface, box.Size through the module
	// interface sizer, countdown, which refers to itself, by Total, and
	// NewTally, Tally.Record, Occupied, NewReport and SortPairs by direct
	// calls from main.
	want := []string{
		"reach/plant Mean",          // called only from plant_test.go
		"reach/plant Meter.Len",     // an unused exported method
		"reach/plant Server.Config", // an unused exported method
		"reach/plant clamp",         // an unused unexported helper
		"reach/plant ghost.String",  // fmt.Stringer on a type nothing else names
		"reach/plant spin",          // refers only to itself
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Fields: Tally.Count is read by main; cell's and span's fields are
	// read as a map key and through ==; Report.Name, Report.Inner and
	// Detail.Level through fmt; pair.Val by a selector in the sort's
	// less func; Tally's _ padding is skipped.
	got = nil
	for _, f := range unreadFields(pkgs) {
		got = append(got, f.key)
	}
	want = []string{
		"reach/plant Report.note",    // unexported: fmt's reflection is not a reader the gate counts
		"reach/plant Tally.hits",     // only op-assigned and incremented
		"reach/plant Tally.keyed",    // only a composite-literal key
		"reach/plant Tally.log",      // only self-appended, also through log[:0]
		"reach/plant Tally.slots",    // only element-written
		"reach/plant Tally.testOnly", // read only from plant_test.go
		"reach/plant Tally.written",  // only assigned
		"reach/plant pair.Key",       // sort.Slice shows the struct to no reader
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("field findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// reachPkg is one type-checked package of a module: its non-test files
// and their type information. gated packages have their declarations
// held to the gate; the others (bench/) only count as users.
type reachPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	gated bool
}

// listedPkg is the part of `go list -json` the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Module     *struct{ Main bool }
}

// loadReach type-checks the non-test files of every package of the
// modules in dirs, the first of which is gated. It runs `go list
// -export -deps -json ./...` once per module and imports every other
// package from the compiler's export data, so nothing is downloaded
// and no dependency is checked from source.
func loadReach(t *testing.T, fset *token.FileSet, dirs ...string) []*reachPkg {
	t.Helper()
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	var pkgs []*reachPkg
	for i, dir := range dirs {
		// go test puts its own toolchain's bin first on PATH.
		cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
		}
		var own []listedPkg
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var lp listedPkg
			if err := dec.Decode(&lp); err != nil {
				t.Fatal(err)
			}
			if lp.Module != nil && lp.Module.Main {
				own = append(own, lp) // -deps lists dependencies first
			} else if lp.Export != "" {
				exports[lp.ImportPath] = lp.Export
			}
		}
		for _, lp := range own {
			if len(lp.CgoFiles) > 0 {
				t.Fatalf("%s uses cgo, which the loader does not type-check", lp.ImportPath)
			}
			var files []*ast.File
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Types:      map[ast.Expr]types.TypeAndValue{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(lp.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
			}
			checked[lp.ImportPath] = pkg
			pkgs = append(pkgs, &reachPkg{pkg: pkg, files: files, info: info, gated: i == 0})
		}
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reachFinding is one declared func that production does not reach.
type reachFinding struct {
	key string // "package/path Recv.Name" or "package/path Name"
	pos token.Pos
}

// funcKey keys a func or method by package path, receiver base type
// and name; a method of a generic type keys on its origin.
func funcKey(fn *types.Func) string {
	if n := receiverNamed(fn); n != nil {
		return fn.Pkg().Path() + " " + n.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + " " + fn.Name()
}

// receiverNamed returns the named type a method is declared on, nil
// for a plain func.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	n, _ := rt.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

// unreached classifies loaded packages into findings: every func or
// method declared in a gated package that no non-test file refers to
// (a func's references to itself do not count; init and main are
// entry points) and that no used interface reaches. A method is
// reached through an interface when its receiver type is referred to
// outside its own methods and that type or its pointer implements an
// interface production uses: error, every exported interface of an
// imported package outside the modules (fmt.Stringer, flag.Value,
// heap.Interface, ...), every module interface a non-test file names,
// and every interface literal written in one.
func unreached(pkgs []*reachPkg) []reachFinding {
	own := map[*types.Package]bool{}
	for _, p := range pkgs {
		own[p.pkg] = true
	}
	usedFuncs := map[*types.Func]bool{}
	usedTypes := map[*types.TypeName]bool{}
	// ifaces maps each used interface to the funcs using it; nil stands
	// for a use outside any func (a package-level declaration, or code
	// outside the modules).
	ifaces := map[types.Type]map[*types.Func]bool{}
	useIface := func(t types.Type, by *types.Func) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() || it.NumMethods() == 0 {
			return
		}
		if ifaces[t] == nil {
			ifaces[t] = map[*types.Func]bool{}
		}
		ifaces[t][by] = true
	}
	useIface(types.Universe.Lookup("error").Type(), nil)
	for _, p := range pkgs {
		for _, imp := range p.pkg.Imports() {
			if own[imp] {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					useIface(tn.Type(), nil)
				}
			}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var self *types.Func // the declared func, whose self-references do not count
				var recvType *types.TypeName
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self, _ = p.info.Defs[fd.Name].(*types.Func)
					if n := receiverNamed(self); n != nil {
						recvType = n.Obj()
					}
				}
				declared := map[ast.Node]bool{} // interface bodies of type declarations
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.TypeSpec:
						declared[n.Type] = true
					case *ast.InterfaceType:
						if !declared[n] {
							useIface(p.info.Types[n].Type, self)
						}
					case *ast.Ident:
						switch obj := p.info.Uses[n].(type) {
						case *types.Func:
							if obj.Origin() != self {
								usedFuncs[obj.Origin()] = true
							}
						case *types.TypeName:
							useIface(obj.Type(), self)
							if obj != recvType {
								usedTypes[obj] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	// Methods reached through an interface on a used type; an interface
	// that only the method itself uses does not reach it.
	for tn := range usedTypes {
		named, ok := tn.Type().(*types.Named)
		if !ok || !own[tn.Pkg()] || named.TypeParams().Len() > 0 {
			continue
		}
		if _, ok := named.Underlying().(*types.Interface); ok {
			continue
		}
		ptr := types.NewPointer(named)
		for t, users := range ifaces {
			it := t.Underlying().(*types.Interface)
			if !types.Implements(named, it) && !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				fn, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				for u := range users {
					if u != fn.Origin() {
						usedFuncs[fn.Origin()] = true
						break
					}
				}
			}
		}
	}
	var found []reachFinding
	for _, p := range pkgs {
		if !p.gated {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || (fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && p.pkg.Name() == "main")) {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if !usedFuncs[fn] {
					found = append(found, reachFinding{key: funcKey(fn), pos: fd.Pos()})
				}
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].key < found[j].key })
	return found
}

func relPos(root string, pos token.Position) string {
	if r, err := filepath.Rel(root, pos.Filename); err == nil {
		pos.Filename = r
	}
	return pos.String()
}

// unreadFields classifies loaded packages into field findings: every
// named field of a struct type declared in a gated package that no
// non-test file reads ("_" fields are skipped; embedded fields carry no
// name and are not keyed). A write is a selector on the left of =, :=
// or an op-assign, also through index expressions (x.f[i] = v writes
// f); x.f++ and x.f--; a composite-literal key; and the x.f (or
// x.f[:k]) that x.f = append(x.f, ...) appends to. Every other use is
// a read. A field is also read when a value of its struct type is a map
// key or an operand of == or != (every field, through nested struct
// and array fields), and when it is an exported field of a type a
// non-test file converts to an empty interface, where fmt, json and
// reflect can see it (through exported and embedded fields, pointers,
// slices, arrays, maps and channels); an argument to an opaqueSinks
// package does not count.
func unreadFields(pkgs []*reachPkg) []reachFinding {
	read := map[*types.Var]bool{}
	writes := map[*ast.Ident]bool{}
	compared := map[types.Type]bool{}
	var markCompared func(t types.Type)
	markCompared = func(t types.Type) {
		if t == nil || compared[t] {
			return
		}
		compared[t] = true
		switch u := t.Underlying().(type) {
		case *types.Array:
			markCompared(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				markCompared(u.Field(i).Type())
			}
		}
	}
	exposed := map[types.Type]bool{}
	var markExposed func(t types.Type)
	markExposed = func(t types.Type) {
		if t == nil || exposed[t] {
			return
		}
		exposed[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			markExposed(u.Elem())
		case *types.Slice:
			markExposed(u.Elem())
		case *types.Array:
			markExposed(u.Elem())
		case *types.Chan:
			markExposed(u.Elem())
		case *types.Map:
			markExposed(u.Key())
			markExposed(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() || f.Embedded() {
					read[f.Origin()] = true
					markExposed(f.Type())
				}
			}
		}
	}
	for _, p := range pkgs {
		// toIface records an implicit or explicit conversion of e to target.
		toIface := func(target types.Type, e ast.Expr) {
			if _, ok := target.(*types.TypeParam); ok || target == nil {
				return
			}
			if it, ok := target.Underlying().(*types.Interface); !ok || it.NumMethods() > 0 {
				return
			}
			if src := p.info.TypeOf(e); src != nil && !types.IsInterface(src) {
				markExposed(src)
			}
		}
		for _, tv := range p.info.Types {
			if tv.Type == nil {
				continue
			}
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				markCompared(m.Key())
			}
		}
		for _, f := range p.files {
			var sigs []*types.Signature // enclosing funcs, innermost last
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					switch stack[len(stack)-1].(type) {
					case *ast.FuncDecl, *ast.FuncLit:
						sigs = sigs[:len(sigs)-1]
					}
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.FuncDecl:
					sigs = append(sigs, p.info.Defs[n.Name].Type().(*types.Signature))
				case *ast.FuncLit:
					sigs = append(sigs, p.info.TypeOf(n).(*types.Signature))
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if id := writtenField(lhs); id != nil {
							writes[id] = true
						}
						if n.Tok != token.ASSIGN || len(n.Lhs) != len(n.Rhs) {
							continue
						}
						toIface(p.info.TypeOf(lhs), n.Rhs[i])
						if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && len(call.Args) > 0 && p.info.Types[call.Fun].IsBuiltin() {
							if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fun.Name == "append" {
								arg := ast.Unparen(call.Args[0])
								if s, ok := arg.(*ast.SliceExpr); ok {
									arg = s.X
								}
								if types.ExprString(arg) == types.ExprString(lhs) {
									if id := writtenField(arg); id != nil {
										writes[id] = true
									}
								}
							}
						}
					}
				case *ast.IncDecStmt:
					if id := writtenField(n.X); id != nil {
						writes[id] = true
					}
				case *ast.CompositeLit:
					switch u := p.info.TypeOf(n).Underlying().(type) {
					case *types.Struct:
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								id := kv.Key.(*ast.Ident)
								writes[id] = true
								toIface(p.info.Uses[id].Type(), kv.Value)
							} else {
								toIface(u.Field(i).Type(), elt)
							}
						}
					case *types.Slice, *types.Array, *types.Map:
						var key, elem types.Type
						switch u := u.(type) {
						case *types.Slice:
							elem = u.Elem()
						case *types.Array:
							elem = u.Elem()
						case *types.Map:
							key, elem = u.Key(), u.Elem()
						}
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if key != nil {
									toIface(key, kv.Key)
								}
								elt = kv.Value
							}
							toIface(elem, elt)
						}
					}
				case *ast.CallExpr:
					tv := p.info.Types[n.Fun]
					if tv.IsType() {
						if len(n.Args) == 1 {
							toIface(tv.Type, n.Args[0])
						}
						break
					}
					sig, ok := tv.Type.(*types.Signature)
					if !ok || tv.IsBuiltin() {
						break
					}
					if callee := calleeOf(p.info, n.Fun); callee != nil && callee.Pkg() != nil && opaqueSinks[callee.Pkg().Path()] {
						break
					}
					params := sig.Params()
					param := func(i int) types.Type {
						if sig.Variadic() && i >= params.Len()-1 {
							last := params.At(params.Len() - 1).Type()
							if n.Ellipsis.IsValid() {
								return last
							}
							return last.(*types.Slice).Elem()
						}
						if i < params.Len() {
							return params.At(i).Type()
						}
						return nil
					}
					for i, a := range n.Args {
						toIface(param(i), a)
					}
				case *ast.ReturnStmt:
					if len(sigs) == 0 {
						break
					}
					res := sigs[len(sigs)-1].Results()
					if len(n.Results) == res.Len() {
						for i, e := range n.Results {
							toIface(res.At(i).Type(), e)
						}
					}
				case *ast.ValueSpec:
					if n.Type != nil {
						for _, v := range n.Values {
							toIface(p.info.TypeOf(n.Type), v)
						}
					}
				case *ast.SendStmt:
					if ch, ok := p.info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
						toIface(ch.Elem(), n.Value)
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						markCompared(p.info.TypeOf(n.X))
						markCompared(p.info.TypeOf(n.Y))
					}
				}
				return true
			})
		}
	}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				read[v.Origin()] = true
			}
		}
	}
	var found []reachFinding
	for _, p := range pkgs {
		if !p.gated {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				owner := "struct" // anonymous structs outside any func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					owner = fd.Name.Name + ".struct"
				}
				// owners maps each struct type expression to the name its
				// fields key under: its type's name, or its field's path.
				owners := map[ast.Expr]string{}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.TypeSpec:
						owners[elemType(n.Type)] = n.Name.Name
					case *ast.StructType:
						o, ok := owners[n]
						if !ok {
							o = owner
						}
						for _, fld := range n.Fields.List {
							for _, id := range fld.Names {
								owners[elemType(fld.Type)] = o + "." + id.Name
								if id.Name == "_" {
									continue
								}
								if v := p.info.Defs[id].(*types.Var); !read[v] {
									found = append(found, reachFinding{key: p.pkg.Path() + " " + o + "." + id.Name, pos: id.Pos()})
								}
							}
						}
					}
					return true
				})
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].key < found[j].key })
	return found
}

// opaqueSinks are the standard packages whose funcs take a value as an
// interface only to hold, order or pin it (sort.Slice, sync.Pool.Put,
// heap.Push, runtime.KeepAlive): passing a struct to them shows its
// fields to no reader.
var opaqueSinks = map[string]bool{"container/heap": true, "runtime": true, "sort": true, "sync": true, "sync/atomic": true}

// calleeOf returns the func or method a call expression's callee names,
// nil for a func value or a conversion.
func calleeOf(info *types.Info, fun ast.Expr) *types.Func {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// writtenField returns the field selector a write to e lands on: e
// itself when it selects a field, or the selector under its index
// expressions (x.f[i] writes f); nil otherwise.
func writtenField(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		default:
			return nil
		}
	}
}

// elemType strips pointer, slice, array, map and channel constructors
// off a type expression, down to the struct type a field's nested
// fields key under.
func elemType(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ArrayType:
			e = x.Elt
		case *ast.MapType:
			e = x.Value
		case *ast.ChanType:
			e = x.Value
		default:
			return e
		}
	}
}
