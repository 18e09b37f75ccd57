package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow names exported storage/core funcs and methods that may
// stay without a product caller, each with the reason. Keep it empty: an
// entry point only tests reach is code to delete or move into a _test.go
// helper.
var deadExportAllow = map[string]string{}

// goFiles parses every non-test .go file under dir, outside storagetest:
// the conformance suite is test support, and what only it calls has no
// product caller.
func goFiles(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() == "storagetest" {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestExportedCoreAndStorageHaveProductCallers fails when an exported
// top-level func or method of internal/storage or internal/core is named
// by no non-test file of internal/, cmd/, bench/ or examples/ outside its
// own declaration. Matching is by name, which is enough here: interface
// methods are called by name too.
func TestExportedCoreAndStorageHaveProductCallers(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	declared := map[string][]string{} // name -> qualified declarations
	for _, pkg := range []string{"storage", "core"} {
		for _, f := range goFiles(t, fset, filepath.Join(root, "internal", pkg)) {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				q := pkg + "." + fd.Name.Name
				if fd.Recv != nil {
					q = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				declared[fd.Name.Name] = append(declared[fd.Name.Name], q)
			}
		}
	}
	refs := map[string]int{}
	for _, dir := range []string{"internal", "cmd", "bench", "examples"} {
		for _, f := range goFiles(t, fset, filepath.Join(root, dir)) {
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = fd.Name.Name
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name != self {
						refs[id.Name]++
					}
					return true
				})
			}
		}
	}
	var dead []string
	for name, decls := range declared {
		if refs[name] == 0 {
			for _, q := range decls {
				if _, ok := deadExportAllow[q]; !ok {
					dead = append(dead, q)
				}
			}
		}
	}
	sort.Strings(dead)
	for _, q := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or move it into a _test.go helper", q)
	}
}

// recvName is a method receiver's type name, without the pointer.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
