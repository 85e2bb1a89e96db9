package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package as the analyzers see it:
// syntax trees plus full go/types information.
type Package struct {
	// Path is the package import path ("nautilus/internal/opt").
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files holds the parsed files, including in-package _test.go files
	// when the loader's IncludeTests is set. External test packages
	// (package foo_test) are not loaded.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks the packages of a single Go module using
// only the standard library: module-internal imports are type-checked from
// source by the loader itself. Other imports (the standard library) are
// read as compiled export data out of the Go build cache when available —
// type-checked once by the toolchain and reused across lint runs — with
// the compiler-independent source importer as the fallback.
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot is the absolute directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string
	// IncludeTests parses in-package _test.go files too.
	IncludeTests bool

	parsed   map[string]*dirSource     // directory → its files, parsed once
	imports  map[string]*types.Package // import path → bodiless import variant
	loading  map[string]bool
	dirOf    map[string]string // import path → directory override
	fallback types.ImporterFrom
	gc       types.ImporterFrom
	exports  *exportLookup
	// noExportData forces the source-importer fallback for every non-module
	// import (tests compare both importer modes through this).
	noExportData bool
}

// NewLoader creates a loader rooted at the module containing dir (dir
// itself, or the nearest ancestor with a go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found at or above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:         fset,
		ModuleRoot:   root,
		ModulePath:   modPath,
		IncludeTests: true,
		parsed:       map[string]*dirSource{},
		imports:      map[string]*types.Package{},
		loading:      map[string]bool{},
		dirOf:        map[string]string{},
	}
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	l.fallback = src
	l.exports = &exportLookup{root: root}
	gc, ok := importer.ForCompiler(fset, "gc", l.exports.open).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: gc importer unavailable")
	}
	l.gc = gc
	return l, nil
}

// exportLookup resolves import paths to compiled export-data files. The
// map is built lazily by one `go list -export` invocation, which compiles
// (or reuses) export data in the Go build cache — so repeated lint runs
// skip re-type-checking the standard library from source entirely.
type exportLookup struct {
	root string

	once  sync.Once
	files map[string]string
}

// build populates the path → export-file map. Failures leave the map
// empty; the loader then falls back to the source importer.
func (e *exportLookup) build() {
	e.files = map[string]string{}
	cmd := exec.Command("go", "list", "-test", "-deps", "-export", "-f", "{{.ImportPath}}\t{{.Export}}", "./...")
	cmd.Dir = e.root
	out, err := cmd.Output()
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(out), "\n") {
		path, file, ok := strings.Cut(line, "\t")
		if !ok || file == "" {
			continue
		}
		// Test-augmented variants list as "pkg [pkg.test]"; their export
		// data describes the in-package test build, not the plain import.
		if strings.Contains(path, " ") {
			continue
		}
		e.files[path] = file
	}
}

// has reports whether export data exists for path.
func (e *exportLookup) has(path string) bool {
	e.once.Do(e.build)
	return e.files[path] != ""
}

// open is the gc importer's lookup hook.
func (e *exportLookup) open(path string) (io.ReadCloser, error) {
	e.once.Do(e.build)
	file := e.files[path]
	if file == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves the given patterns to module packages and type-checks
// them (and, transitively, the declarations of every module package they
// import). A pattern is a directory, or a directory followed by "/..." to
// include every package beneath it; patterns are interpreted relative to
// the module root unless absolute. The returned slice is deduplicated and
// sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		if pat == "" || pat == "." {
			pat = l.ModuleRoot
		} else if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.ModuleRoot, pat)
		}
		if recursive {
			sub, err := goPackageDirs(pat)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, sub...)
		} else {
			dirs = append(dirs, pat)
		}
	}

	var paths []string
	seen := map[string]bool{}
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		if !seen[path] {
			seen[path] = true
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	var out []*Package
	for _, path := range paths {
		pkg, err := l.analysisPackage(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir type-checks a single directory outside the module layout (test
// fixtures). Its import path is synthesized from the directory base name.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := filepath.Base(abs)
	l.dirOf[path] = abs
	return l.analysisPackage(path)
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleRoot)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps an import path back to a directory.
func (l *Loader) dirFor(path string) string {
	if d, ok := l.dirOf[path]; ok {
		return d
	}
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
}

// goPackageDirs returns every directory under root that contains Go files,
// skipping testdata, vendor, and hidden/underscore directories.
func goPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// importVariant type-checks the declarations of one package without its
// test files (memoized), recursively loading module-internal imports first
// via the Importer interface below. Keeping imports test-free is what the
// go tool itself does: in-package test files may import packages that
// (indirectly) import this one, which is only a cycle if tests join the
// import graph. Importers only see the package's exported declarations, so
// function bodies are skipped here; analysisPackage is where every body is
// checked, exactly once.
func (l *Loader) importVariant(path string) (*types.Package, error) {
	if p, ok := l.imports[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	src, err := l.parseDir(l.dirFor(path))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, f := range src.all {
		if !src.tests[f] {
			files = append(files, f)
		}
	}
	tpkg, err := l.check(path, files, nil)
	if err != nil {
		return nil, err
	}
	l.imports[path] = tpkg
	return tpkg, nil
}

// analysisPackage returns the package the analyzers see: every function
// body type-checked, in-package test files included when IncludeTests is
// set. It is a compilation unit of its own — importers of the package get
// importVariant, as the go tool gives them the test-free build.
func (l *Loader) analysisPackage(path string) (*Package, error) {
	dir := l.dirFor(path)
	src, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := l.check(path, src.all, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Dir: dir, Files: src.all, Types: tpkg, Info: info}, nil
}

// check runs one go/types pass over files. A nil info asks for the
// declarations only (the import variant): function bodies are not checked.
func (l *Loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	var typeErrs []error
	conf := &types.Config{
		Importer:         l,
		Error:            func(err error) { typeErrs = append(typeErrs, err) },
		IgnoreFuncBodies: info == nil,
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	return tpkg, nil
}

// dirSource is one directory's parsed Go files, parsed once per Loader and
// shared by the package's import and analysis variants.
type dirSource struct {
	all   []*ast.File        // directory order
	tests map[*ast.File]bool // the in-package _test.go files among them; empty unless IncludeTests
}

// parseDir parses the package's Go files (memoized): all non-test files
// plus, when IncludeTests is set, _test.go files belonging to the same
// package. Files excluded by build constraints (//go:build lines or
// _GOOS/_GOARCH name suffixes) are skipped for the host platform, exactly
// as the go tool would — otherwise a portable/assembly file pair (tensor's
// SIMD fallbacks) would redeclare its symbols under the type checker.
func (l *Loader) parseDir(dir string) (*dirSource, error) {
	if src, ok := l.parsed[dir]; ok {
		return src, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	src := &dirSource{tests: map[*ast.File]bool{}}
	var pkgName string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !l.IncludeTests {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		// External test packages are a separate compilation unit; skip.
		if isTest && strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		if isTest {
			src.tests[f] = true
		} else if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("lint: %s: mixed packages %q and %q", dir, pkgName, f.Name.Name)
		}
		src.all = append(src.all, f)
	}
	if len(src.all) == len(src.tests) {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	l.parsed[dir] = src
	return src, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// loaded by this loader; everything else (the standard library) reads
// cached export data when available, falling back to the source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		return l.importVariant(path)
	}
	if !l.noExportData && l.exports.has(path) {
		if pkg, err := l.gc.ImportFrom(path, srcDir, 0); err == nil {
			return pkg, nil
		}
	}
	return l.fallback.ImportFrom(path, srcDir, 0)
}
