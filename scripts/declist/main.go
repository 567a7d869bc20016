// Command declist prints every function and method declared in the
// non-test Go files of the given packages, one per line, named the way
// `go tool nm` names the linked symbol with generic instantiation
// brackets stripped:
//
//	coldtall.(*Study).ArtifactTable
//	coldtall/internal/array.Characterize
//	coldtall/internal/array.(*Config).feasible
//	coldtall/internal/cache.(*Cache).Get
//
// Arguments follow the go command's package patterns: a directory ending
// in "/..." lists it and every package below it; a plain directory lists
// only its own package, so "." is the module root's package alone.
// init functions are skipped: a package's initializers run whenever the
// package is linked at all. scripts/deadcheck.sh diffs this list against
// the symbols of every built binary.
//
//	go run ./scripts/declist -module coldtall ./internal/... .
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
	for _, pattern := range flag.Args() {
		if err := list(*module, pattern); err != nil {
			fmt.Fprintln(os.Stderr, "declist:", err)
			os.Exit(1)
		}
	}
}

// list prints the declarations of every non-test file in the packages
// pattern names.
func list(module, pattern string) error {
	root, recursive := strings.CutSuffix(pattern, "/...")
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || (!recursive && path != root)) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Clean(filepath.Dir(path))); dir != "." {
			pkg += "/" + dir
		}
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
