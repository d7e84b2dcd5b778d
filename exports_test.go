package cosplit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// interfaceMethods are called through an interface the standard library
// declares, so no file of the repository names the call.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// deadExports are the exported functions and methods of internal/ that
// only tests call, each with why it stays for now.
var deadExports = map[string]string{
	// The tests' oracles and knobs.
	"shard.Network.RecomputeStateRoot": "the tests' oracle: the root rebuilt from the state",
	"shard.WithCompiledExecution":      "keeps the interpreter as the tests' reference engine",
	"shard.WithOverflowGuard":          "the Sec. 6 extension E11 reports",
	// Kept for the root package's tests and for item 7.
	"node.Lookup.WaitReceipt": "the root package's bench_test.go waits on it",
	"node.DSObs":              "item 7 wires the registry through the roles",
	"node.LookupObs":          "item 7 wires the registry through the roles",
	"node.ShardObs":           "item 7 wires the registry through the roles",
	// Seams tests in other packages reach through: an export_test.go
	// file serves only its own package's tests.
	"chain.Contract.ReplaceState": "tests in five packages seed a contract's state with it",
	"obs.WithClock":               "internal/shard's golden trace pins its clock with it",
	"wire.Counts":                 "internal/node's tests count codec conversions with it",
	// Item 1(a) reads a summary's effects through these.
	"domain.Summary.Conditions": "item 1(a)'s effect containment reads summaries through it",
	"domain.Summary.HasTop":     "item 1(a)'s effect containment reads summaries through it",
	"domain.Summary.Reads":      "item 1(a)'s effect containment reads summaries through it",
	"domain.Summary.Writes":     "item 1(a)'s effect containment reads summaries through it",
}

// TestNoDeadExports is the dead-export gate: it parses every non-test
// Go file under internal/, cmd/, examples/ and benchmark/ and fails on
// an exported function or method declared in internal/ whose name no
// identifier outside its own declaration mentions, unless deadExports
// lists it. It counts any use of the name, so it is conservative for
// methods. An entry of deadExports that names no dead export fails it
// too, so the list says what is dead today.
func TestNoDeadExports(t *testing.T) {
	start := time.Now()
	fset := token.NewFileSet()
	type decl struct {
		key        string
		name       string
		file       string
		start, end token.Pos
	}
	var decls []decl
	uses := map[string][]token.Pos{}
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					uses[id.Name] = append(uses[id.Name], id.Pos())
				}
				return true
			})
			if root != "internal" {
				return nil
			}
			for _, dd := range f.Decls {
				fd, ok := dd.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || (fd.Recv != nil && interfaceMethods[fd.Name.Name]) {
					continue
				}
				key := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, fd.Name.Name, path, fd.Pos(), fd.End()})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	dead := map[string]bool{}
	for _, d := range decls {
		if !slices.ContainsFunc(uses[d.name], func(at token.Pos) bool { return at < d.start || at >= d.end }) {
			dead[d.key] = true
			if _, ok := deadExports[d.key]; !ok {
				t.Errorf("%s (%s) is exported and nothing outside tests calls it: call it, unexport it, delete it, or list it in deadExports with why", d.key, d.file)
			}
		}
	}
	for key := range deadExports {
		if !dead[key] {
			t.Errorf("deadExports lists %s, which is not a dead export: drop the entry", key)
		}
	}
	t.Logf("%d exported functions and methods in internal/, %d called only from tests, in %v", len(decls), len(dead), time.Since(start))
}

// recvName is a method receiver's type name.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
