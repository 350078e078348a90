package main

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestDocumentedFlagsExist reads every p2psim and schedulerd invocation in
// the README, the docs and the two commands' own comments, and the flag
// table in docs/OPERATIONS.md, and fails on any -flag the command does not
// define — so a removed or renamed flag cannot linger in the docs.
func TestDocumentedFlagsExist(t *testing.T) {
	var o options
	commands := map[string]*flag.FlagSet{
		"p2psim":     newFlagSet(&o),
		"schedulerd": schedulerdFlags(t),
	}
	files, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "../../README.md", "main.go", "../schedulerd/main.go")
	invocations := map[string]int{}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		flagTable := false
		for i := 0; i < len(lines); i++ {
			line, at := lines[i], i+1
			if strings.HasPrefix(line, "#") {
				flagTable = strings.HasSuffix(path, "OPERATIONS.md") && line == "## Starting the daemon"
			}
			// A shell continuation carries the invocation onto the next line.
			for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, `\`) + " " + lines[i]
			}
			for cmd, fs := range commands {
				names := invocationFlags(line, cmd)
				if cmd == "schedulerd" && flagTable {
					names = append(names, tableFlag(line)...)
				}
				for _, name := range names {
					invocations[cmd]++
					if fs.Lookup(name) == nil {
						t.Errorf("%s:%d: %s has no -%s flag: %s", path, at, cmd, name, strings.TrimSpace(line))
					}
				}
			}
		}
	}
	for cmd := range commands {
		if invocations[cmd] < 20 {
			t.Fatalf("found only %d documented %s flags; is the scan still reading the docs?", invocations[cmd], cmd)
		}
	}
}

// schedulerdFlags returns the flags schedulerd's newFlagSet declares, read
// from its source (a main package cannot be imported): the name argument of
// every fs.<Type>Var call in it.
func schedulerdFlags(t *testing.T) *flag.FlagSet {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "../schedulerd/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("schedulerd", flag.ContinueOnError)
	declared := 0
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); !ok || fn.Name.Name != "newFlagSet" {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			lit, isLit := call.Args[1].(*ast.BasicLit)
			if ok && strings.HasSuffix(sel.Sel.Name, "Var") && isLit && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				fs.Bool(name, false, "")
				declared++
			}
			return true
		})
	}
	if declared < 10 {
		t.Fatalf("read only %d flags from schedulerd's newFlagSet", declared)
	}
	return fs
}

// invocationFlags returns the flag names on a line that runs cmd: the -name
// tokens after "cmd ", up to the end of an inline code span, a shell comment
// or a pipe.
func invocationFlags(line, cmd string) []string {
	_, args, ok := strings.Cut(line, cmd+" ")
	if !ok {
		return nil
	}
	for _, stop := range []string{"`", " #", "|"} {
		args, _, _ = strings.Cut(args, stop)
	}
	var names []string
	for _, tok := range strings.Fields(args) {
		tok = strings.TrimLeft(tok, "[")
		if len(tok) < 2 || tok[0] != '-' || tok[1] < 'a' || tok[1] > 'z' {
			continue
		}
		name, _, _ := strings.Cut(tok[1:], "=")
		names = append(names, strings.TrimRight(name, "]"))
	}
	return names
}

// tableFlag returns the flag a markdown table row names in its first column
// ("| `-name` | …"), if any.
func tableFlag(line string) []string {
	cell, ok := strings.CutPrefix(line, "| `-")
	if !ok {
		return nil
	}
	name, _, ok := strings.Cut(cell, "`")
	if !ok {
		return nil
	}
	return []string{name}
}
