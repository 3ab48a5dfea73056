package framework

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without go/packages: module
// packages are type-checked from source recursively, the standard library
// is imported through the stdlib source importer, and (for fixture tests) a
// FixtureRoot directory resolves any remaining import paths, mirroring
// analysistest's GOPATH layout.
type Loader struct {
	// ModRoot is the filesystem root of the module being analyzed.
	ModRoot string
	// ModPath is the module's import path prefix (e.g. "repro").
	ModPath string
	// FixtureRoot, when set, resolves import paths that are neither module
	// nor stdlib: import "radio" loads <FixtureRoot>/radio.
	FixtureRoot string
	// IncludeTests parses _test.go files into the package (in-package test
	// files only; external _test packages are out of lint scope).
	IncludeTests bool

	fset  *token.FileSet
	std   types.Importer
	cache map[string]*loadEntry
}

type loadEntry struct {
	pkg *Package
	err error
}

func (l *Loader) init() {
	if l.fset == nil {
		l.fset = token.NewFileSet()
		l.std = importer.ForCompiler(l.fset, "source", nil)
		l.cache = make(map[string]*loadEntry)
	}
}

// Import implements types.Importer so module and fixture packages can
// depend on each other and on the standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	l.init()
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if l.FixtureRoot != "" {
		dir := filepath.Join(l.FixtureRoot, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			pkg, err := l.LoadDir(dir, path)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the single package in dir under the given
// import path. Results are memoized by import path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	l.init()
	if e, ok := l.cache[importPath]; ok {
		return e.pkg, e.err
	}
	// Reserve the slot to surface import cycles as errors rather than
	// infinite recursion.
	l.cache[importPath] = &loadEntry{err: fmt.Errorf("framework: import cycle through %q", importPath)}
	pkg, err := l.loadDirUncached(dir, importPath)
	l.cache[importPath] = &loadEntry{pkg: pkg, err: err}
	return pkg, err
}

func (l *Loader) loadDirUncached(dir, importPath string) (*Package, error) {
	names, err := goFilesIn(dir, l.IncludeTests)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("framework: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			// In-package tests share the package name; external test
			// packages ("foo_test") are skipped rather than mixed in.
			if strings.TrimSuffix(f.Name.Name, "_test") == pkgName || strings.TrimSuffix(pkgName, "_test") == f.Name.Name {
				continue
			}
			return nil, fmt.Errorf("framework: %s: multiple packages %q and %q", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("framework: type-checking %s: %w", importPath, typeErrs[0])
	}
	return &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// goFilesIn lists buildable Go file names in dir, sorted, excluding tests
// unless includeTests. Build constraints (//go:build lines and _GOOS/_GOARCH
// file names) are honoured for the host's build context, as go build and
// go vet honour them, so a package with per-architecture files declaring
// the same names type-checks.
func goFilesIn(dir string, includeTests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadPatterns loads packages matching go-tool-style patterns relative to
// the module root: "./..." (whole module), "dir/..." (subtree), or a plain
// directory. Directories named testdata, vendored trees, and hidden
// directories are skipped; so are directories with only test files.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	l.init()
	dirSet := make(map[string]bool)
	var dirs []string
	addDir := func(d string) {
		if !dirSet[d] {
			dirSet[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		switch {
		case pat == "./..." || pat == "...":
			if err := l.walkTree(l.ModRoot, addDir); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			if err := l.walkTree(root, addDir); err != nil {
				return nil, err
			}
		default:
			addDir(filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./"))))
		}
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return nil, err
		}
		ip := l.ModPath
		if rel != "." {
			ip = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, ip)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// walkTree calls addDir for every directory under root containing at least
// one non-test Go file. Like the go tool's "./...", it does not descend into
// a nested module: a directory below root with its own go.mod belongs to
// that module, not to the one being analyzed.
func (l *Loader) walkTree(root string, addDir func(string)) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "node_modules") {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		names, err := goFilesIn(path, false)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			addDir(path)
		}
		return nil
	})
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func FindModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("framework: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("framework: no go.mod above %s", abs)
		}
		d = parent
	}
}
