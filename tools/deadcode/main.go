// Command deadcode lists the functions under internal/ that no binary of
// the module reaches. It links every main package (cmd/*, bench,
// examples/*) with inlining off and the linker's dependency dump on
// (go build -gcflags=all=-l -ldflags=-dumpdep, both stock toolchain
// flags), takes every symbol the dumps name as reached, and reports each
// non-test function declared under internal/ whose symbol is not among
// them, with its line count (doc comment included). A function only a
// test calls is listed: no binary needs it.
//
// Run it from the module root; it prints the list, then the totals on
// the last line:
//
//	go run ./tools/deadcode
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// roots are the main packages whose reach counts.
var roots = []string{"./cmd/...", "./bench", "./examples/..."}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

func run() error {
	module, err := modulePath("go.mod")
	if err != nil {
		return err
	}
	mains, err := mainPackages()
	if err != nil {
		return err
	}
	reached := map[string]bool{}
	for _, pkg := range mains {
		if err := linkDeps(pkg, reached); err != nil {
			return err
		}
	}
	funcs, err := declaredFuncs(module, "internal")
	if err != nil {
		return err
	}
	var dead []fn
	lines := 0
	for _, f := range funcs {
		if !f.reachedIn(reached) {
			dead = append(dead, f)
			lines += f.lines
		}
	}
	for _, f := range dead {
		fmt.Printf("%s:%d\t%s\t%d lines\n", f.file, f.line, f.symbol, f.lines)
	}
	fmt.Printf("%d functions, %d lines under internal/ reached by no binary (%d main packages linked)\n",
		len(dead), lines, len(mains))
	return nil
}

// modulePath reads the module line of go.mod.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("run from the module root: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s has no module line", gomod)
}

func mainPackages() ([]string, error) {
	args := append([]string{"list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`}, roots...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	return strings.Fields(string(out)), nil
}

// linkDeps links pkg into a throwaway binary and adds every symbol of
// the linker's dependency dump ("from -> to" lines) to reached.
func linkDeps(pkg string, reached map[string]bool) error {
	dir, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "bin"),
		"-gcflags=all=-l", "-ldflags=-dumpdep", pkg)
	var dump bytes.Buffer
	cmd.Stderr = &dump
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", pkg, err, tail(dump.String()))
	}
	sc := bufio.NewScanner(&dump)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, s := range []string{from, to} {
			if s = strings.TrimSpace(s); s != "" {
				reached[stripTypeArgs(s)] = true
			}
		}
	}
	return sc.Err()
}

// tail keeps the end of a long build log.
func tail(s string) string {
	if len(s) > 2000 {
		return "..." + s[len(s)-2000:]
	}
	return s
}

// stripTypeArgs drops the instantiation brackets from a linker symbol,
// so every shape of a generic function or method names the declaration:
// "p.(*fifo[go.shape.int]).push" → "p.(*fifo).push".
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// fn is one function declaration and the linker symbols it may go by.
type fn struct {
	file    string
	line    int
	lines   int
	symbol  string
	aliases []string // the other receiver form of a method
}

func (f fn) reachedIn(reached map[string]bool) bool {
	if reached[f.symbol] {
		return true
	}
	for _, a := range f.aliases {
		if reached[a] {
			return true
		}
	}
	return false
}

// declaredFuncs walks the non-test Go files under root and returns every
// function and method with a body, except init and main functions.
func declaredFuncs(module, root string) ([]fn, error) {
	fset := token.NewFileSet()
	var out []fn
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil // a command of its own, not a library
		}
		pkg := module + "/" + filepath.ToSlash(path.Clean(filepath.Dir(p)))
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil || (d.Recv == nil && d.Name.Name == "init") {
				continue
			}
			start := d.Pos()
			if d.Doc != nil {
				start = d.Doc.Pos()
			}
			g := fn{
				file:  p,
				line:  fset.Position(d.Pos()).Line,
				lines: fset.Position(d.End()).Line - fset.Position(start).Line + 1,
			}
			if d.Recv == nil {
				g.symbol = pkg + "." + d.Name.Name
			} else {
				typ, ptr := receiver(d.Recv.List[0].Type)
				value, pointer := pkg+"."+typ+"."+d.Name.Name, pkg+".(*"+typ+")."+d.Name.Name
				g.symbol, g.aliases = value, []string{pointer}
				if ptr {
					g.symbol, g.aliases = pointer, nil
				}
			}
			out = append(out, g)
		}
		return nil
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, err
}

// receiver names a method's receiver type, without type parameters, and
// reports whether it is a pointer.
func receiver(e ast.Expr) (name string, pointer bool) {
	if star, ok := e.(*ast.StarExpr); ok {
		e, pointer = star.X, true
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name, pointer
	}
	return fmt.Sprint(e), pointer
}
