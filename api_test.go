package waitfree

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestAPIGolden pins the root package's exported surface: every exported
// top-level name and method declared in its non-test files, one per line,
// must equal testdata/api.golden. A removed entry point cannot come back,
// and a new one cannot appear, without the golden file changing with it
// (regenerate with `go test -run TestAPIGolden -update .`).
func TestAPIGolden(t *testing.T) {
	got := strings.Join(exportedNames(t, "."), "\n") + "\n"
	path := filepath.Join("testdata", "api.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("exported API differs from %s:\n%s", path, lineDiff(string(want), got))
	}
}

// exportedNames parses the non-test Go files of dir and returns their
// exported identifiers, sorted: top-level funcs, types, vars and consts by
// name, methods as Receiver.Method.
func exportedNames(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					names = append(names, id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								names = append(names, id.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
