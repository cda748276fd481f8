package smoke

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// interfaceMethods are the exported methods under internal/ that no
// file outside their package names, because callers reach them through
// an interface. Each entry is "package-dir recv.Method" → the interface.
var interfaceMethods = map[string]string{
	"internal/core candHeap.Pop":                "container/heap.Interface",
	"internal/core candHeap.Swap":               "container/heap.Interface",
	"internal/core WorldExecutor.ExecuteTraced": "core.TracedExecutor",
	"internal/tm AvoidPoP.Select":               "tm.SelectionPolicy",
	"internal/tm LowestRTT.Select":              "tm.SelectionPolicy",
	"internal/tm PreferPoP.Select":              "tm.SelectionPolicy",
}

// surfaceDecl is one exported top-level func or method.
type surfaceDecl struct {
	dir, recv, name string
	pos             token.Position
}

func (d surfaceDecl) key() string {
	if d.recv == "" {
		return d.dir + " " + d.name
	}
	return d.dir + " " + d.recv + "." + d.name
}

// recvName returns the base type name of a method receiver.
func recvName(fl *ast.FieldList) string {
	e := fl.List[0].Type
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// TestExportedSurfaceInventory holds the exported surface to what other
// packages use: every exported func or method declared in a non-test
// file under internal/ must be named by some file outside its own
// package directory (tests, cmd/, examples/, bench/ and the root
// package all count). A package-level func counts as named when
// another file selects it through that package's import; a method
// counts when another file selects any field or method of that name,
// or when it satisfies an interface listed in interfaceMethods.
func TestExportedSurfaceInventory(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	var decls []surfaceDecl
	funcUses := map[string]bool{}   // "import/path Name"
	methodUses := map[string]bool{} // "dir Name": selected from outside dir
	type parsed struct {
		dir string
		f   *ast.File
	}
	var files []parsed
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		files = append(files, parsed{rel, f})
		if !strings.HasPrefix(rel, "internal/") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			sd := surfaceDecl{dir: rel, name: fd.Name.Name, pos: fset.Position(fd.Pos())}
			if fd.Recv != nil {
				sd.recv = recvName(fd.Recv)
			}
			decls = append(decls, sd)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range files {
		imports := map[string]string{} // local name → import path
		for _, is := range p.f.Imports {
			path, _ := strconv.Unquote(is.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = path
		}
		ast.Inspect(p.f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if path, ok := imports[id.Name]; ok {
					funcUses[path+" "+sel.Sel.Name] = true
				}
			}
			methodUses[p.dir+" "+sel.Sel.Name] = true
			return true
		})
	}
	// methodNamedOutside reports whether a file outside dir selects name.
	dirs := map[string]bool{}
	for _, p := range files {
		dirs[p.dir] = true
	}
	methodNamedOutside := func(dir, name string) bool {
		for d := range dirs {
			if d != dir && methodUses[d+" "+name] {
				return true
			}
		}
		return false
	}

	var unused []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if d.recv == "" {
			if funcUses["painter/"+d.dir+" "+d.name] {
				continue
			}
		} else {
			if _, ok := interfaceMethods[d.key()]; ok {
				allowed[d.key()] = true
				continue
			}
			if methodNamedOutside(d.dir, d.name) {
				continue
			}
		}
		unused = append(unused, d.pos.String()[len(root)+1:]+": "+d.key())
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but named by no other package (unexport it, delete it, or list the interface it satisfies): %s", u)
	}
	for k := range interfaceMethods {
		if !allowed[k] {
			t.Errorf("interfaceMethods lists %s, which is no longer an exported method", k)
		}
	}
	t.Logf("%d exported funcs and methods under internal/, %d unused", len(decls), len(unused))
}
