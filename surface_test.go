package lake_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExportedSurfaceUsed is the offline unused-export check: an exported
// name declared under internal/ that nothing references outside its own
// package's _test.go files fails the test, unless testdata/surface_allowlist.txt
// names it with a reason. So does a name reached only from the bodies of
// such names (a chain behind a test hook). An allowlist entry the check no
// longer flags fails too, so the list only shrinks with the code it excuses.
func TestExportedSurfaceUsed(t *testing.T) {
	allowed, err := readAllowlist("testdata/surface_allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	flagged, err := unusedExports(".", "lakego", allowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range flagged {
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s is exported but referenced only by its own package's tests or from flagged names: delete it, unexport it, or allowlist it with a reason", name)
		}
		delete(allowed, name)
	}
	for name := range allowed {
		t.Errorf("allowlist entry %s is no longer flagged: delete the entry", name)
	}

	t.Run("planted", func(t *testing.T) {
		root := t.TempDir()
		for path, src := range map[string]string{
			"internal/a/a.go":      "package a\n\nfunc Used() {}\nfunc Orphan() {}\n\ntype T struct{ F, G int }\n\nfunc (T) M() {}\nfunc (T) N() {}\n",
			"internal/a/chain.go":  "package a\n\nfunc Hook() int { return Link1() }\nfunc Link1() int { return Link2 }\n\nvar Link2 = 2\n\nfunc API() { Helper() }\nfunc Helper() {}\n",
			"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) { Orphan(); T{}.M(); _ = T{G: 1}; Hook(); API() }\n",
			"internal/a/x_test.go": "package a_test\n\nimport \"example/internal/a\"\n\nvar _ = a.Orphan\n",
			"cmd/b/main.go":        "package main\n\nimport alias \"example/internal/a\"\n\nfunc main() { alias.Used(); _ = alias.T{F: 1}; alias.T{}.N() }\n",
		} {
			if err := os.MkdirAll(filepath.Join(root, filepath.Dir(path)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, path), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Hook's body is all that reaches Link1, and Link1's all that reaches
		// Link2; API is kept for a reason other than a test hook, so what
		// its body reaches counts as used.
		got, err := unusedExports(root, "example", map[string]string{
			"internal/a.Hook": "test hook: planted",
			"internal/a.API":  "paper API: planted",
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"internal/a.API", "internal/a.Hook", "internal/a.Link1", "internal/a.Link2", "internal/a.Orphan", "internal/a.T.G", "internal/a.T.M"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("planted violations: flagged %v, want %v", got, want)
		}
	})
}

// readAllowlist reads "name reason" lines; blank lines and # comments are
// skipped, and an entry without a reason is an error.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, &os.PathError{Op: "line " + strconv.Itoa(line), Path: path, Err: fs.ErrInvalid}
		}
		out[name] = reason
	}
	return out, sc.Err()
}

// use is where a name is referenced: the referring package's directory,
// whether the reference sits in a _test.go file, and the full name of the
// top-level declaration it sits in ("" in an import or a declaration of
// several names).
type use struct {
	dir  string
	test bool
	from string
}

// unusedExports parses every Go file of the module rooted at root and
// returns, sorted, the exported names declared in non-test files under
// internal/ that are referenced only from their own package's _test.go
// files, or from the declarations of names it flags. Names are "dir.Name"
// for package-level functions, types, constants and variables and
// "dir.Type.Name" for methods and struct fields.
//
// allowed is the allowlist: a flagged name it keeps for a reason other than
// "test hook: ..." is used API, so what its declaration references counts as
// used. Every other flagged name, test hooks included, reaches nothing: a
// name referenced only from inside them is flagged too, to a fixed point.
//
// The match is by name, without type checking: a package-level name counts
// as used where its package qualifies it (or, inside its own package, where
// it appears bare); a method or field counts as used wherever any selector
// or composite-literal key of that name appears. That over-approximates use,
// so a flagged name is reliably unreferenced outside its tests; a method
// reached only through an interface a library calls (fmt's String, sort's
// Len) has no selector and is flagged.
func unusedExports(root, module string, allowed map[string]string) ([]string, error) {
	files, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	pkgName := map[string]string{} // dir -> package name of its non-test files
	for _, f := range files {
		if !f.test {
			pkgName[f.dir] = f.ast.Name.Name
		}
	}

	// Declarations: exported names in non-test files under internal/.
	decls := map[string]string{} // name -> declaring dir
	declIdents := map[*ast.Ident]bool{}
	declare := func(dir, name string, id *ast.Ident) {
		declIdents[id] = true
		if id.IsExported() {
			decls[name] = dir
		}
	}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declare(f.dir, funcName(f.dir, d), d.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(f.dir, f.dir+"."+s.Name.Name, s.Name)
						var members []*ast.Field
						switch typ := s.Type.(type) {
						case *ast.StructType:
							members = typ.Fields.List
						case *ast.InterfaceType:
							members = typ.Methods.List
						}
						for _, m := range members {
							for _, id := range m.Names {
								declare(f.dir, f.dir+"."+s.Name.Name+"."+id.Name, id)
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(f.dir, f.dir+"."+id.Name, id)
						}
					}
				}
			}
		}
	}

	// References.
	pkgUses := map[string][]use{} // "dir.Name" -> uses of a package-level name
	selUses := map[string][]use{} // member name -> uses as a selector or key
	for _, f := range files {
		imports := map[string]string{} // local name -> dir
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(path, module+"/")
			if !ok {
				continue
			}
			local := pkgName[dir]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = dir
		}
		at := use{dir: f.dir, test: f.test}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selUses[n.Sel.Name] = append(selUses[n.Sel.Name], at)
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						pkgUses[dir+"."+n.Sel.Name] = append(pkgUses[dir+"."+n.Sel.Name], at)
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					selUses[k.Name] = append(selUses[k.Name], at)
				}
			case *ast.Ident:
				if !declIdents[n] {
					pkgUses[f.dir+"."+n.Name] = append(pkgUses[f.dir+"."+n.Name], at)
				}
			}
			return true
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				at.from = funcName(f.dir, d)
				ast.Inspect(d, visit)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					at.from = specName(f.dir, s)
					ast.Inspect(s, visit)
				}
			}
		}
	}

	// dead holds the flagged names; a reference from inside one counts
	// unless the allowlist keeps that name as API.
	dead := map[string]bool{}
	for grew := true; grew; {
		grew = false
		for name, dir := range decls {
			if dead[name] {
				continue
			}
			uses := pkgUses[name]
			if member := strings.TrimPrefix(name, dir+"."); strings.Contains(member, ".") {
				uses = selUses[member[strings.IndexByte(member, '.')+1:]]
			}
			used := false
			for _, u := range uses {
				if (u.dir != dir || !u.test) && (!dead[u.from] || isKept(allowed[u.from])) {
					used = true
					break
				}
			}
			if !used {
				dead[name], grew = true, true
			}
		}
	}
	var out []string
	for name := range dead {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// moduleFile is one parsed Go file of the module: its path and directory
// relative to the module root, slash-separated, and whether it is a
// _test.go file.
type moduleFile struct {
	path, dir string
	test      bool
	fset      *token.FileSet
	ast       *ast.File
}

// parseModule parses every Go file under root, skipping testdata and the
// directories the go tool ignores (names starting with "." or "_").
func parseModule(root string) ([]moduleFile, error) {
	var files []moduleFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		files = append(files, moduleFile{rel, pathpkg.Dir(rel), strings.HasSuffix(name, "_test.go"), fset, f})
		return nil
	})
	return files, err
}

// isKept reports whether an allowlist reason keeps a name as used API:
// any reason but a test hook.
func isKept(reason string) bool {
	return reason != "" && !strings.HasPrefix(reason, "test hook:")
}

// funcName is a function's full name: "dir.Name", or "dir.Type.Name" for a
// method.
func funcName(dir string, d *ast.FuncDecl) string {
	if d.Recv == nil {
		return dir + "." + d.Name.Name
	}
	return dir + "." + recvType(d.Recv.List[0].Type) + "." + d.Name.Name
}

// specName is the full name of the one type, constant or variable a spec
// declares, or "" for an import or a spec of several names.
func specName(dir string, s ast.Spec) string {
	switch s := s.(type) {
	case *ast.TypeSpec:
		return dir + "." + s.Name.Name
	case *ast.ValueSpec:
		if len(s.Names) == 1 {
			return dir + "." + s.Names[0].Name
		}
	}
	return ""
}

// recvType is a method receiver's type name, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
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
