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
// a fault injector, the fields production writes but does not yet read,
// the consts a wire format names though production never uses them, and
// the knobs a test needs: a seam through which it substitutes a fake,
// or a wall-clock phase a named tier-1 test must shorten. An entry is
// removed as soon as production reaches its func, field or const or no
// test needs it; one is added only with its reason. A field a test
// reads as its window onto production is not listed: the test reads a
// production observable instead.
var reachAllowlist = map[string]string{
	"painter/internal/tm PoPConfig.PoPID":          "set by the benchmark's tm rigs, which only a benchmark change may edit; it goes with that change",
	"painter/internal/netsim World.probeLossF":     "the probe-loss overlay EventProbeLoss writes, until ROADMAP item 26 decides EventProbeLoss",
	"painter/internal/obs ParseText":               "scrape oracle: the obs, controlapi and smoke tests parse /metrics expositions with it",
	"painter/internal/advertise Config.Validate":   "config invariant the advertise, core and chaos tests assert on the configurations they build, until an installer checks every config it sends",
	"painter/internal/netsim/emul Link.SetLossPct": "fault injection for the tm tests over emulated links, until one chaos schedule drives the data plane",
	"painter/internal/netsim/emul Link.SetFilter":  "fault injection for the tm tests over emulated links, until one chaos schedule drives the data plane",
	"painter/internal/netsim/emul Link.Rebind":     "fault injection for the tm tests over emulated links, until one chaos schedule drives the data plane",
	"painter/internal/bgp Result.Bytes":            "canonical encoding of a route selection that the bgp, netsim, core and chaos determinism tests compare and hash",
	"painter/internal/bgp OriginEGP":               "RFC 4271 ORIGIN wire code: the decoder passes every code through, and the table names all three",
	"painter/internal/bgp OriginIncomplete":        "RFC 4271 ORIGIN wire code: the decoder passes every code through, and the table names all three",

	// Knobs: a test seam, or a value a named tier-1 test must shorten to
	// finish in bounded time.
	"painter/internal/obs/span Config.Clock":             "test seam: TestSameSeedByteIdenticalExport (internal/obs/span) injects a fake clock for byte-identical exports",
	"painter/internal/figures Fig10Config.PreFail":       "wall-clock phase TestFig10Failover (internal/experiments) and BenchmarkFig10 (root) shorten",
	"painter/internal/figures Fig10Config.PostFail":      "wall-clock phase TestFig10Failover (internal/experiments) and BenchmarkFig10 (root) shorten",
	"painter/internal/figures Fig10Config.AnycastOutage": "wall-clock phase BenchmarkFig10 and BenchmarkFailoverDetection (root) shorten",
	"painter/internal/figures Fig10Config.ConvergeAfter": "wall-clock phase BenchmarkFig10 and BenchmarkFailoverDetection (root) shorten",
}

// TestReachabilityGate holds every func and method declared in a
// non-test file of the root module to code that production reaches:
// some non-test file of the root module or of bench/ must refer to it,
// or it must implement, on a type production refers to, an interface
// production uses. Funcs that only tests call are test code and belong
// in a _test.go file. Every named struct field declared there must be
// read by such a file (unreadFields); a field only written is deleted
// with the work that computes it. Every knob, an exported field of an
// options struct, must be set to more than one value (unsetKnobs); one
// production always sets alike is a constant. Every package-level const
// and var must be referred to by such a file (unusedDecls).
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
	for _, f := range unsetKnobs(pkgs) {
		if _, ok := unused[f.key]; ok {
			delete(unused, f.key)
			continue
		}
		t.Errorf("%s: knob %s is set to one value by production (make it a constant)",
			relPos(root, fset.Position(f.pos)), f.key)
	}
	for _, f := range unusedDecls(pkgs) {
		if _, ok := unused[f.key]; ok {
			delete(unused, f.key)
			continue
		}
		t.Errorf("%s: %s is referred to by no production code (delete it)",
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
	// read as a map key and through ==; Report's fields (note too) and
	// Detail.Level through fmt's %v; pair.Val by a selector in the sort's
	// less func; Tally's _ padding is skipped.
	got = nil
	for _, f := range unreadFields(pkgs) {
		got = append(got, f.key)
	}
	want = []string{
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

	// Knobs: DialOptions.Timeout is set from a constructor parameter,
	// DialOptions.Backoff by package tune, FileConfig.Path by
	// json.Unmarshal.
	got = nil
	for _, f := range unsetKnobs(pkgs) {
		got = append(got, f.key)
	}
	want = []string{
		"reach/plant DialOptions.Level",   // a constant, then printed by value, where fmt cannot set it
		"reach/plant DialOptions.Retries", // only its package's default, with a constant
		"reach/plant DialOptions.Verbose", // never set
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("knob findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Consts and vars: ModeFast is used by main.
	got = nil
	for _, f := range unusedDecls(pkgs) {
		got = append(got, f.key)
	}
	want = []string{
		"reach/plant ModeSafe", // unused, though another member of its block is used
		"reach/plant Unused",   // referred to by nothing
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("const and var findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
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
// slices, arrays, maps and channels), or any field of a type passed to
// a fmt func, whose %v prints unexported fields too; an argument to an
// opaqueSinks package does not count.
func unreadFields(pkgs []*reachPkg) []reachFinding {
	read, _ := scanFields(pkgs)
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

// unsetKnobs classifies loaded packages into knob findings: every
// exported field of an exported struct type declared in a gated package
// whose name ends in Config, Params, Options or Profile (a knob), that
// no non-test file sets to more than one value. A knob is set when a
// non-test file outside its package writes it, when its own package
// writes it from a value that is not a compile-time constant (an
// op-assign, x.f++, &x.f and x.f[i] = v count as such), or when a
// non-test file exposes it to reflection through an empty interface
// (json.Unmarshal). A knob found is one value production always uses:
// a constant.
func unsetKnobs(pkgs []*reachPkg) []reachFinding {
	_, set := scanFields(pkgs)
	var found []reachFinding
	for _, p := range pkgs {
		if !p.gated {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !ts.Name.IsExported() || !isKnobOwner(ts.Name.Name) {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if v := p.info.Defs[id].(*types.Var); id.IsExported() && !set[v] {
								found = append(found, reachFinding{key: p.pkg.Path() + " " + ts.Name.Name + "." + id.Name, pos: id.Pos()})
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].key < found[j].key })
	return found
}

// isKnobOwner reports whether a struct type's name marks it as options.
func isKnobOwner(name string) bool {
	for _, s := range []string{"Config", "Params", "Options", "Profile"} {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// unusedDecls classifies loaded packages into findings: every
// package-level const and var declared in a gated package that no
// non-test file refers to ("_" is skipped).
func unusedDecls(pkgs []*reachPkg) []reachFinding {
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			used[obj] = true
		}
	}
	var found []reachFinding
	for _, p := range pkgs {
		if !p.gated {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
					continue
				}
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if id.Name != "_" && !used[p.info.Defs[id]] {
							found = append(found, reachFinding{key: p.pkg.Path() + " " + id.Name, pos: id.Pos()})
						}
					}
				}
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].key < found[j].key })
	return found
}

// scanFields walks every non-test file once and returns the fields that
// are read (unreadFields' rules) and the fields that are set to more
// than one value (unsetKnobs' rules).
func scanFields(pkgs []*reachPkg) (read, set map[*types.Var]bool) {
	read, set = map[*types.Var]bool{}, map[*types.Var]bool{}
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
	// markExposed marks the fields reflection sees through a value of
	// type t: exported and embedded ones, or with all (fmt's %v) every
	// field. Those it reaches through a pointer, a slice, a map or a
	// channel it may also set (json.Unmarshal).
	type exposure struct {
		t             types.Type
		all, settable bool
	}
	exposed := map[exposure]bool{}
	var markExposed func(t types.Type, all, settable bool)
	markExposed = func(t types.Type, all, settable bool) {
		if t == nil || exposed[exposure{t, all, settable}] {
			return
		}
		exposed[exposure{t, all, settable}] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			markExposed(u.Elem(), all, true)
		case *types.Slice:
			markExposed(u.Elem(), all, true)
		case *types.Array:
			markExposed(u.Elem(), all, settable)
		case *types.Chan:
			markExposed(u.Elem(), all, true)
		case *types.Map:
			markExposed(u.Key(), all, true)
			markExposed(u.Elem(), all, true)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); all || f.Exported() || f.Embedded() {
					read[f.Origin()] = true
					if settable && f.Exported() {
						set[f.Origin()] = true
					}
					markExposed(f.Type(), all, settable)
				}
			}
		}
	}
	for _, p := range pkgs {
		// toIface records an implicit or explicit conversion of e to
		// target; all when fmt receives it.
		toIface := func(target types.Type, e ast.Expr, all bool) {
			if _, ok := target.(*types.TypeParam); ok || target == nil {
				return
			}
			if it, ok := target.Underlying().(*types.Interface); !ok || it.NumMethods() > 0 {
				return
			}
			if src := p.info.TypeOf(e); src != nil && !types.IsInterface(src) {
				markExposed(src, all, false)
			}
		}
		// noteSet records a write of field v from val, nil for a value
		// that is not a single expression.
		noteSet := func(v *types.Var, val ast.Expr) {
			if v == nil || !v.IsField() {
				return
			}
			if v.Pkg() != p.pkg || val == nil || p.info.Types[val].Value == nil {
				set[v.Origin()] = true
			}
		}
		fieldOf := func(id *ast.Ident) *types.Var {
			v, _ := p.info.Uses[id].(*types.Var)
			return v
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
						single := (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) && len(n.Lhs) == len(n.Rhs)
						if id := writtenField(lhs); id != nil {
							writes[id] = true
							if _, direct := ast.Unparen(lhs).(*ast.SelectorExpr); direct && single {
								noteSet(fieldOf(id), n.Rhs[i])
							} else {
								noteSet(fieldOf(id), nil)
							}
						}
						if n.Tok != token.ASSIGN || len(n.Lhs) != len(n.Rhs) {
							continue
						}
						toIface(p.info.TypeOf(lhs), n.Rhs[i], false)
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
						noteSet(fieldOf(id), nil)
					}
				case *ast.UnaryExpr:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
						noteSet(fieldOf(sel.Sel), nil)
					}
				case *ast.CompositeLit:
					switch u := p.info.TypeOf(n).Underlying().(type) {
					case *types.Struct:
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								id := kv.Key.(*ast.Ident)
								writes[id] = true
								noteSet(fieldOf(id), kv.Value)
								toIface(p.info.Uses[id].Type(), kv.Value, false)
							} else {
								noteSet(u.Field(i), elt)
								toIface(u.Field(i).Type(), elt, false)
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
									toIface(key, kv.Key, false)
								}
								elt = kv.Value
							}
							toIface(elem, elt, false)
						}
					}
				case *ast.CallExpr:
					tv := p.info.Types[n.Fun]
					if tv.IsType() {
						if len(n.Args) == 1 {
							toIface(tv.Type, n.Args[0], false)
						}
						break
					}
					sig, ok := tv.Type.(*types.Signature)
					if !ok || tv.IsBuiltin() {
						break
					}
					callee := calleeOf(p.info, n.Fun)
					if callee != nil && callee.Pkg() != nil && opaqueSinks[callee.Pkg().Path()] {
						break
					}
					printed := callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt"
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
						toIface(param(i), a, printed)
					}
				case *ast.ReturnStmt:
					if len(sigs) == 0 {
						break
					}
					res := sigs[len(sigs)-1].Results()
					if len(n.Results) == res.Len() {
						for i, e := range n.Results {
							toIface(res.At(i).Type(), e, false)
						}
					}
				case *ast.ValueSpec:
					if n.Type != nil {
						for _, v := range n.Values {
							toIface(p.info.TypeOf(n.Type), v, false)
						}
					}
				case *ast.SendStmt:
					if ch, ok := p.info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
						toIface(ch.Elem(), n.Value, false)
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
	return read, set
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
