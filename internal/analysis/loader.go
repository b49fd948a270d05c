// The loader: parse and type-check every package of the module exactly
// once, through one importer chain, so types.Object identity holds across
// packages and facts can be keyed on objects. Module-internal imports are
// resolved by this loader itself (recursively, with a cache); everything
// else falls through to the stdlib source importer, shared across the whole
// run instead of rebuilt per package, which is what makes a whole-module
// analysis affordable.

package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Unit is one parsed, type-checked package of the program.
type Unit struct {
	Path      string // import path ("vgiw/internal/engine")
	Dir       string // directory the files were parsed from
	Name      string // package name
	Files     []*ast.File
	Filenames []string // per-file source path, parallel to Files
	Pkg       *types.Package
	Info      *types.Info
	// Report marks units whose diagnostics the caller asked for. Units
	// loaded only as dependencies are analyzed (their facts and
	// suppressions must exist) but not reported on.
	Report bool
}

// A Program is a loaded module: all units in dependency order (every
// unit's module-internal imports precede it).
type Program struct {
	Fset  *token.FileSet
	Units []*Unit
}

// Unit returns the unit with the given import path, or nil.
func (p *Program) Unit(path string) *Unit {
	for _, u := range p.Units {
		if u.Path == path {
			return u
		}
	}
	return nil
}

type loader struct {
	fset    *token.FileSet
	root    string // module root directory
	modPath string
	std     types.Importer
	units   map[string]*Unit
	order   []*Unit
	loading map[string]bool
}

func newLoader(root, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		units:   make(map[string]*Unit),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer: module-internal paths are loaded (and
// cached) by this loader, so the resulting *types.Package — and every
// object in it — is the same one the analysis passes see; all other paths
// go to the stdlib source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		u, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return u.Pkg, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module-internal import path to its directory.
func (l *loader) dirFor(path string) string {
	if path == l.modPath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
}

func (l *loader) load(path string) (*Unit, error) {
	if u, ok := l.units[path]; ok {
		return u, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	pkgs, err := parser.ParseDir(l.fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	var names []string
	for name := range pkgs {
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: %s: no non-test Go files", dir)
	}
	if len(names) > 1 {
		sort.Strings(names)
		return nil, fmt.Errorf("analysis: %s: multiple packages %v in one directory", dir, names)
	}
	pkg := pkgs[names[0]]

	var files []*ast.File
	var fnames []string
	for fname := range pkg.Files {
		fnames = append(fnames, fname)
	}
	sort.Strings(fnames)
	for _, fname := range fnames {
		files = append(files, pkg.Files[fname])
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}

	u := &Unit{
		Path:      path,
		Dir:       dir,
		Name:      names[0],
		Files:     files,
		Filenames: fnames,
		Pkg:       tpkg,
		Info:      info,
	}
	l.units[path] = u
	l.order = append(l.order, u)
	return u, nil
}

// program wraps the loader's completed units (already in dependency order:
// load() appends a unit only after all its imports finished).
func (l *loader) program() *Program {
	return &Program{Fset: l.fset, Units: l.order}
}

// Load parses and type-checks the whole module rooted at root (skipping
// testdata and hidden directories) and returns it as a Program with every
// unit marked reportable.
func Load(root, modPath string) (*Program, error) {
	rels, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	return LoadPackages(root, modPath, rels)
}

// LoadPackages loads the named package directories (relative to root, "."
// for the root package) plus, transitively, every module-internal package
// they import. Only the named packages are marked reportable.
func LoadPackages(root, modPath string, rels []string) (*Program, error) {
	l := newLoader(root, modPath)
	for _, rel := range rels {
		rel = filepath.ToSlash(filepath.Clean(rel))
		path := modPath
		if rel != "." {
			path = modPath + "/" + rel
		}
		u, err := l.load(path)
		if err != nil {
			return nil, err
		}
		u.Report = true
	}
	return l.program(), nil
}

// packageDirs returns every directory under root (as a root-relative
// path) that contains non-test Go files, skipping testdata and hidden
// directories.
func packageDirs(root string) ([]string, error) {
	var rels []string
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if path != root && (base == "testdata" || strings.HasPrefix(base, ".")) {
			return filepath.SkipDir
		}
		hasGo, err := dirHasGo(path)
		if err != nil || !hasGo {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rels = append(rels, filepath.ToSlash(rel))
		return nil
	})
	return rels, err
}

func dirHasGo(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true, nil
		}
	}
	return false, nil
}
