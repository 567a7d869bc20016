// Command declist prints every function and method declared in the
// non-test Go files under the given directories, one per line, named the
// way `go tool nm` names the linked symbol with generic instantiation
// brackets stripped:
//
//	coldtall/internal/array.Characterize
//	coldtall/internal/array.(*Config).feasible
//	coldtall/internal/cache.(*Cache).Get
//
// init functions are skipped: a package's initializers run whenever the
// package is linked at all. scripts/deadcheck.sh diffs this list against
// the symbols of every built binary.
//
//	go run ./scripts/declist -module coldtall ./internal
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	module := flag.String("module", "coldtall", "module path the directories are relative to")
	flag.Parse()
	for _, root := range flag.Args() {
		if err := list(*module, root); err != nil {
			fmt.Fprintln(os.Stderr, "declist:", err)
			os.Exit(1)
		}
	}
}

// list walks root and prints the declarations of every non-test file.
func list(module, root string) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Clean(filepath.Dir(path)))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			fmt.Println(pkg + "." + receiver(fn) + fn.Name.Name)
		}
		return nil
	})
}

// receiver renders a method's receiver as nm does ("(*T)." or "T."),
// without type parameters; plain functions have none.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	star, ok := t.(*ast.StarExpr)
	if ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	name := t.(*ast.Ident).Name
	if ok {
		return "(*" + name + ")."
	}
	return name + "."
}
