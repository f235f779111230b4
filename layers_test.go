package lake_test

import (
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestLayersGolden pins the module's import DAG in testdata/layers.golden:
// one "importer -> imported" line per import of one lakego package by
// another (non-test files), so every new edge is a reviewed diff. It also
// holds the layering: the runtime (internal/core) reaches none of the layers
// that attach to it, and the fleet reaches neither the health plane nor the
// model lifecycle. Re-bless with: go test -run TestLayersGolden -update .
func TestLayersGolden(t *testing.T) {
	const module = "lakego"
	imports := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		from := module
		if path != "." {
			from += "/" + filepath.ToSlash(path)
		}
		for _, imp := range pkg.Imports {
			if imp == module || strings.HasPrefix(imp, module+"/") {
				imports[from] = append(imports[from], imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var edges []string
	for from, tos := range imports {
		for _, to := range tos {
			edges = append(edges, from+" -> "+to)
		}
	}
	sort.Strings(edges)
	got := strings.Join(edges, "\n") + "\n"

	const golden = "testdata/layers.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(golden); err != nil {
		t.Fatalf("missing golden (run with -update to bless): %v", err)
	} else if got != string(want) {
		t.Errorf("import DAG drifted from %s (re-bless with -update if intended)\n--- want ---\n%s--- got ---\n%s",
			golden, want, got)
	}

	for _, c := range []struct {
		pkg       string
		forbidden []string
	}{
		{"internal/core", []string{"batcher", "healthplane", "lifecycle", "features", "fleet", "nn"}},
		{"internal/fleet", []string{"healthplane", "lifecycle"}},
		{"internal/healthplane", []string{"fleet", "lifecycle"}},
	} {
		reached := map[string]bool{}
		var walk func(p string)
		walk = func(p string) {
			for _, dep := range imports[p] {
				if !reached[dep] {
					reached[dep] = true
					walk(dep)
				}
			}
		}
		walk(module + "/" + c.pkg)
		for _, f := range c.forbidden {
			if reached[module+"/internal/"+f] {
				t.Errorf("%s reaches internal/%s: a layer built on it must attach itself, not be imported", c.pkg, f)
			}
		}
	}
}
