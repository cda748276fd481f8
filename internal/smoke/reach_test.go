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
// a fault injector. An entry is removed as soon as production reaches
// its func or no test needs it; one is added only with its reason.
var reachAllowlist = map[string]string{
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
// in a _test.go file.
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
	// interface sizer, and countdown, which refers to itself, by Total.
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
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
				Types: map[ast.Expr]types.TypeAndValue{},
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
