package shard_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestPipelineStartsNoGoroutine holds internal/shard and
// internal/dispatch to their one execution mode: a queue runs on the
// goroutine that called ExecuteShard. Concurrency between shards is
// internal/node's (one actor or process per shard); a `go` statement in
// either package would be a second mode arriving unannounced.
func TestPipelineStartsNoGoroutine(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../dispatch"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("%s: no package parsed", dir)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						t.Errorf("%s: go statement", fset.Position(g.Pos()))
					}
					return true
				})
			}
		}
	}
}
