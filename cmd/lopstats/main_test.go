package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunOnDataset(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "", "gnutella100", 1, 1, false); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"nodes      100", "links      116", "max 1-opacity"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunOnFileWithOpacityMatrix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	content := "# Nodes: 7 Edges: 10\n0 1\n0 2\n1 2\n1 3\n1 4\n2 4\n2 5\n3 4\n4 5\n5 6\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, path, "", 1, 1, true); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "max 1-opacity  1.0000") {
		t.Fatalf("expected max opacity 1.0 for Figure 1:\n%s", s)
	}
	if !strings.Contains(s, "P{4,4}") {
		t.Fatalf("opacity matrix missing P{4,4} row:\n%s", s)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "/does/not/exist", "", 1, 1, false); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run(&out, "", "no-such-key", 1, 1, false); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
