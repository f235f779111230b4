package lake_test

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// wallTimerFiles may arm a wall-clock timer: the batcher's linger, until a
// virtual-time barrier replaces it.
var wallTimerFiles = map[string]bool{"internal/batcher/flush.go": true}

// wallStampFiles may read the wall clock: uptime, incident and dump stamps,
// the recorder's coarse event clock and its wall spans.
var wallStampFiles = map[string]bool{
	"internal/healthplane/healthplane.go": true,
	"internal/healthplane/incident.go":    true,
	"internal/flightrec/flightrec.go":     true,
	"internal/flightrec/ring.go":          true,
	"internal/core/core.go":               true,
}

// TestNoGoroutineOneWallTimer pins that everything under internal/ runs on
// its callers' goroutines and the virtual clock: no non-test file starts a
// goroutine or yields in a busy-wait (runtime.Gosched), only the batcher's
// linger arms a wall timer, and only the stamp sites above read the wall
// clock. A goroutine, a spin or a wall read elsewhere would make an outcome
// depend on the schedule; a spin that waits for other goroutines livelocks
// when its own caller is the one it waits for.
func TestNoGoroutineOneWallTimer(t *testing.T) {
	files, err := parseModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range wallClockUses(files) {
		t.Error(v)
	}

	// One planted violation per rule, beside the same code where it is
	// allowed: a test file, a file outside internal/, a listed file.
	for _, c := range []struct {
		name string
		src  map[string]string
		want []string
	}{
		{"goroutine", map[string]string{
			"internal/a/a.go":      "package a\n\nfunc f() {\n\tgo f()\n}\n",
			"internal/a/a_test.go": "package a\n\nfunc g() { go g() }\n",
			"cmd/b/b.go":           "package main\n\nfunc main() { go main() }\n",
		}, []string{"internal/a/a.go:4: go statement"}},
		{"gosched", map[string]string{
			"internal/a/a.go":      "package a\n\nimport rt \"runtime\"\n\nfunc f(n *int) {\n\tfor *n > 0 {\n\t\trt.Gosched()\n\t}\n}\n",
			"internal/a/a_test.go": "package a\n\nimport \"runtime\"\n\nfunc g() { runtime.Gosched() }\n",
			"cmd/b/b.go":           "package main\n\nimport \"runtime\"\n\nfunc main() { runtime.Gosched() }\n",
			"internal/c/c.go":      "package c\n\nimport \"runtime\"\n\nfunc f() int { return runtime.NumCPU() }\n",
		}, []string{"internal/a/a.go:7: busy-wait rt.Gosched"}},
		{"timer", map[string]string{
			"internal/a/a.go":           "package a\n\nimport clock \"time\"\n\nvar t = clock.NewTicker(1)\n\nfunc f() { clock.Sleep(1); <-clock.After(1) }\n",
			"internal/batcher/flush.go": "package batcher\n\nimport \"time\"\n\nvar t = time.NewTimer(1)\n",
			"internal/c/c.go":           "package c\n\nvar time struct{ Sleep func() }\n\nfunc f() { time.Sleep() }\n",
		}, []string{"internal/a/a.go:5: wall timer clock.NewTicker", "internal/a/a.go:7: wall timer clock.Sleep", "internal/a/a.go:7: wall timer clock.After"}},
		{"wall read", map[string]string{
			"internal/a/a.go":         "package a\n\nimport \"time\"\n\nvar now = time.Now\n\nfunc f(t time.Time) time.Duration { return time.Since(t) }\n",
			"internal/core/core.go":   "package core\n\nimport \"time\"\n\nvar boot = time.Now()\n",
			"internal/core/x_test.go": "package core\n\nimport \"time\"\n\nvar t0 = time.Now()\n",
		}, []string{"internal/a/a.go:5: wall clock read time.Now", "internal/a/a.go:7: wall clock read time.Since"}},
	} {
		t.Run("planted/"+c.name, func(t *testing.T) {
			root := t.TempDir()
			for path, src := range c.src {
				if err := os.MkdirAll(filepath.Join(root, filepath.Dir(path)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(root, path), []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			files, err := parseModule(root)
			if err != nil {
				t.Fatal(err)
			}
			if got := wallClockUses(files); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("planted violations: got %q, want %q", got, c.want)
			}
		})
	}
}

// wallClockUses returns, as "file:line: what", every go statement and
// runtime.Gosched in a non-test file under internal/, every wall timer
// outside wallTimerFiles and every wall clock read outside wallStampFiles.
// A time or runtime function counts where a selector on the file's name
// for that import names it, called or not.
func wallClockUses(files []moduleFile) []string {
	var out []string
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		timePkg, runtimePkg := "", ""
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path
			if imp.Name != nil {
				name = imp.Name.Name
			}
			switch path {
			case "time":
				timePkg = name
			case "runtime":
				runtimePkg = name
			}
		}
		report := func(n ast.Node, what string) {
			out = append(out, fmt.Sprintf("%s:%d: %s", f.path, f.fset.PositionFor(n.Pos(), false).Line, what))
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				report(n, "go statement")
			case *ast.SelectorExpr:
				pkg, ok := n.X.(*ast.Ident)
				if !ok {
					break
				}
				name := pkg.Name + "." + n.Sel.Name
				if runtimePkg != "" && pkg.Name == runtimePkg && n.Sel.Name == "Gosched" {
					report(n, "busy-wait "+name)
				}
				if timePkg == "" || pkg.Name != timePkg {
					break
				}
				switch n.Sel.Name {
				case "NewTimer", "After", "AfterFunc", "Sleep", "Tick", "NewTicker":
					if !wallTimerFiles[f.path] {
						report(n, "wall timer "+name)
					}
				case "Now", "Since":
					if !wallStampFiles[f.path] {
						report(n, "wall clock read "+name)
					}
				}
			}
			return true
		})
	}
	return out
}
