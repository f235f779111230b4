package lake_test

import (
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestAPISurfaceGolden pins package lake's exported identifiers, so the
// facade only grows or shrinks as a reviewed edit to testdata/api.golden.
// Re-bless with: go test -run TestAPISurfaceGolden -update .
func TestAPISurfaceGolden(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["lake"].Files {
		files = append(files, f)
	}
	p, err := doc.NewFromFiles(fset, files, "lakego")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, name := range v.Names {
				ids = append(ids, name+" "+kind)
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			ids = append(ids, f.Name+" func")
		}
	}
	values("const", p.Consts)
	values("var", p.Vars)
	funcs(p.Funcs)
	for _, typ := range p.Types {
		ids = append(ids, typ.Name+" type")
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		for _, m := range typ.Methods {
			ids = append(ids, typ.Name+"."+m.Name+" method")
		}
	}
	sort.Strings(ids)
	got := strings.Join(ids, "\n") + "\n"

	const golden = "testdata/api.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to bless): %v", err)
	}
	if got != string(want) {
		t.Fatalf("package lake's exported surface drifted from %s (re-bless with -update if intended)\n--- want ---\n%s--- got ---\n%s",
			golden, want, got)
	}
}
