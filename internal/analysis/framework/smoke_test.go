package framework

import (
	"go/build"
	"os"
	"path/filepath"
	"testing"
)

func TestSmokeLoadModule(t *testing.T) {
	root, path, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := &Loader{ModRoot: root, ModPath: path}
	pkgs, err := l.LoadPatterns("./...")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("loaded %d packages", len(pkgs))
	if len(pkgs) < 20 {
		t.Fatalf("too few packages: %d", len(pkgs))
	}
}

// TestLoadPatternsSkipsNestedModules checks that "./..." stops at a
// directory with its own go.mod, as the go tool does: that code belongs to
// another module and must not be linted as part of this one.
func TestLoadPatternsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":          "module m\n",
		"a/a.go":          "package a\n",
		"nested/go.mod":   "module m/nested\n",
		"nested/n.go":     "package nested\n",
		"nested/sub/s.go": "package sub\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := &Loader{ModRoot: root, ModPath: "m"}
	pkgs, err := l.LoadPatterns("./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if len(got) != 1 || got[0] != "m/a" {
		t.Fatalf("loaded %v, want only [m/a]", got)
	}
}

// TestLoadHonoursBuildConstraints checks that a package whose files declare
// one name per architecture, selected by file name and by //go:build line,
// loads with only the host's files, as go build compiles it; a file under
// //go:build ignore is left out too.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	root := t.TempDir()
	arch := build.Default.GOARCH
	files := map[string]string{
		"go.mod":              "module m\n",
		"k/k.go":              "package k\n\nvar Y = X\n",
		"k/x_" + arch + ".go": "package k\n\nvar X = 1\n",
		"k/x_other.go":        "//go:build !" + arch + "\n\npackage k\n\nvar X = 2\n",
		"k/gen.go":            "//go:build ignore\n\npackage main\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := &Loader{ModRoot: root, ModPath: "m"}
	pkgs, err := l.LoadPatterns("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 2 {
		t.Fatalf("loaded %d packages, want 1 with 2 files (k.go and x_%s.go)", len(pkgs), arch)
	}
}
