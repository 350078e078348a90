package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExpAllSmallGolden pins every paper report byte for byte: the stdout of
// `p2psim -exp all -scale small`, charts included, must equal the committed
// capture. Regenerate it, only when a report is meant to change, with
// `go run ./cmd/p2psim -exp all -scale small > cmd/p2psim/testdata/exp_small.golden`.
func TestExpAllSmallGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper report at small scale")
	}
	got := captureStdout(t, func() error { return run([]string{"-exp", "all", "-scale", "small"}) })
	path := filepath.Join("testdata", "exp_small.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s:%d differs:\n got: %q\nwant: %q", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gotLines), len(wantLines))
}

// captureStdout runs fn with os.Stdout redirected to a file and returns what
// it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
