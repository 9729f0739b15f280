package cc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseMVC: no input may panic the front end. Parse followed by
// Check must return a unit or an error for any byte string.
//
// The seeds are every MVC program (or program fragment) the module
// already carries: the back-quoted string literals of the Go files in
// internal/, examples/ and cmd/ that lex as MVC and look like code.
// That covers the experiment kernels of the sim packages and the
// programs of every package's tests, and stays in step with them.
func FuzzParseMVC(f *testing.F) {
	for _, src := range mvcSeeds(f) {
		f.Add(src)
	}
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		u, err := Parse("fuzz.mvc", src)
		if err != nil {
			return
		}
		_ = Check(u)
	})
}

// mvcSeeds harvests MVC sources from the module's Go files.
func mvcSeeds(f *testing.F) []string {
	var seeds []string
	fset := token.NewFileSet()
	for _, root := range []string{"..", "../../examples", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
					return true
				}
				src, err := strconv.Unquote(lit.Value)
				if err != nil || !strings.ContainsAny(src, ";{") {
					return true
				}
				if _, err := LexAll("seed.mvc", src); err == nil {
					seeds = append(seeds, src)
				}
				return true
			})
			return nil
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	if len(seeds) < 20 {
		f.Fatalf("harvested only %d MVC seeds; the walk lost the sources", len(seeds))
	}
	return seeds
}
