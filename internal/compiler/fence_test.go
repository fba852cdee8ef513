package compiler

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// compilePasses are the pass entry points that only Compile may chain:
// per import path, the functions no other package may name.
var compilePasses = map[string][]string{
	"ltsp/internal/hlo":  {"Apply"},
	"ltsp/internal/core": {"Pipeline", "PipelineCtx", "GenSequential"},
}

// fenceExempt are the module directories allowed to name the passes:
// core defines them, this package chains them, and perfbench re-runs the
// phases from outside to time them.
var fenceExempt = []string{"internal/core", "internal/compiler", "perfbench"}

// TestOneCompilePath holds the module to one compile path: outside the
// exempt directories and test files, no Go file names hlo.Apply,
// core.Pipeline, core.PipelineCtx or core.GenSequential, so every loop is
// compiled through Compile.
func TestOneCompilePath(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(p, root+string(filepath.Separator)))
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata" || exempt(rel)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, use := range passUses(f) {
			t.Errorf("%s: %s bypasses compiler.Compile", fset.Position(use.pos), use.name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d Go files from %s; is the module root right?", files, root)
	}
}

func exempt(rel string) bool {
	for _, dir := range fenceExempt {
		if rel == dir {
			return true
		}
	}
	return false
}

// passUse is one reference to a fenced pass.
type passUse struct {
	pos  token.Pos
	name string
}

// passUses returns every reference in f to a fenced pass through its
// package's import name. A dot import of a fenced package counts as a
// use of all its passes.
func passUses(f *ast.File) []passUse {
	local := map[string]string{} // import name -> import path
	var uses []passUse
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || compilePasses[p] == nil {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." {
			uses = append(uses, passUse{imp.Pos(), "dot import of " + p})
			continue
		}
		local[name] = p
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		p, ok := local[x.Name]
		if !ok {
			return true
		}
		for _, fn := range compilePasses[p] {
			if sel.Sel.Name == fn {
				uses = append(uses, passUse{sel.Pos(), x.Name + "." + fn})
			}
		}
		return true
	})
	return uses
}

// TestPassUses checks the fence's detector on import renames and dot
// imports, so a renamed import cannot slip a pass call past it.
func TestPassUses(t *testing.T) {
	src := `package p
import (
	c "ltsp/internal/core"
	"ltsp/internal/hlo"
	. "ltsp/internal/core"
)
var _ = c.GenSequential
func f() { hlo.Apply(nil, hlo.Options{}); c.Resolve("") }
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range passUses(f) {
		got = append(got, u.name)
	}
	want := "dot import of ltsp/internal/core, c.GenSequential, hlo.Apply"
	if strings.Join(got, ", ") != want {
		t.Fatalf("passUses = %q, want %q", got, want)
	}
}
