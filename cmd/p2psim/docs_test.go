package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDocumentedFlagsExist reads every p2psim invocation in the README, the
// docs and this package's own comment, and fails on any -flag p2psim does
// not define — so a removed or renamed flag cannot linger in the docs.
func TestDocumentedFlagsExist(t *testing.T) {
	var o options
	fs := newFlagSet(&o)
	files, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "../../README.md", "main.go")
	invocations := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		for i := 0; i < len(lines); i++ {
			line, at := lines[i], i+1
			// A shell continuation carries the invocation onto the next line.
			for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, `\`) + " " + lines[i]
			}
			for _, flagName := range p2psimFlags(line) {
				invocations++
				if fs.Lookup(flagName) == nil {
					t.Errorf("%s:%d: p2psim has no -%s flag: %s", path, at, flagName, strings.TrimSpace(line))
				}
			}
		}
	}
	if invocations < 20 {
		t.Fatalf("found only %d documented p2psim flags; is the scan still reading the docs?", invocations)
	}
}

// p2psimFlags returns the flag names on a line that runs p2psim: the -name
// tokens after "p2psim ", up to the end of an inline code span, a shell
// comment or a pipe.
func p2psimFlags(line string) []string {
	_, args, ok := strings.Cut(line, "p2psim ")
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
