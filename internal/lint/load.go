package lint

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

// Package is one loaded, type-checked package: parsed syntax for every
// file in the directory (test files included) plus go/types info for
// the non-test files. Analyzers consume this and nothing else.
type Package struct {
	Path string // import path, e.g. repro/internal/optics
	Dir  string
	Fset *token.FileSet
	// Files are the non-test files, sorted by filename — the
	// type-checked compilation unit.
	Files []*ast.File
	// TestFiles are the package's _test.go files (in-package and
	// external), parsed but not type-checked; the oraclepair rule and
	// the suppression scanner read them syntactically.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
	// TypeErrors collects type-check diagnostics. The suite analyses
	// what it can regardless: the repo gates `go vet` before osclint,
	// so real breakage surfaces there first.
	TypeErrors []error
	// loader holds the module-wide facts a rule may need beyond this
	// package: the testonly rule's identifier counts.
	loader *Loader
}

// IsInternal reports whether the package lives under internal/ — the
// scope of the determinism and oracle-pair conventions.
func (p *Package) IsInternal() bool {
	return strings.Contains(p.Path, "/internal/") || strings.HasSuffix(p.Path, "/internal")
}

// IsCmd reports whether the package is a command under cmd/.
func (p *Package) IsCmd() bool {
	return strings.Contains(p.Path, "/cmd/")
}

// Loader parses and type-checks module packages with the standard
// library resolved from $GOROOT/src via go/importer's source importer —
// no go/packages, no x/tools, no export data needed. Loaded packages
// are cached, so a ./... walk type-checks each package once.
type Loader struct {
	Fset    *token.FileSet
	ModPath string
	ModRoot string
	std     types.Importer
	pkgs    map[string]*Package // by directory
	imports map[string]*types.Package
	loading map[string]bool
	// idents counts identifier tokens per name over the non-test files
	// of every directory in identDirs; identUses fills both on first
	// use (testonly.go).
	idents    map[string]int
	identDirs map[string]bool
}

// NewLoader reads the module path from root's go.mod and returns a
// ready Loader.
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModRoot: root,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		imports: map[string]*types.Package{},
		loading: map[string]bool{},
	}, nil
}

func modulePath(gomod string) (string, error) {
	buf, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// Import implements types.Importer: module-local paths load from the
// module tree, everything else from the standard library source.
//
//osclint:ignore testonly go/types calls it through the types.Importer interface the Loader implements
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.imports[path]; ok {
		return p, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		if l.loading[path] {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		p, err := l.Load(filepath.Join(l.ModRoot, rel))
		if err != nil {
			return nil, err
		}
		if p == nil || p.Types == nil {
			return nil, fmt.Errorf("lint: no package in %s", rel)
		}
		l.imports[path] = p.Types
		return p.Types, nil
	}
	p, err := l.std.Import(path)
	if err == nil {
		l.imports[path] = p
	}
	return p, err
}

// Load parses and type-checks the package in dir. It returns (nil,
// nil) when the directory holds no non-test Go files. Results are
// cached per directory.
func (l *Loader) Load(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	if p, ok := l.pkgs[dir]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	p := &Package{
		Path:   l.importPath(dir),
		Dir:    dir,
		Fset:   l.Fset,
		loader: l,
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if strings.HasSuffix(name, "_test.go") {
			p.TestFiles = append(p.TestFiles, f)
		} else {
			p.Files = append(p.Files, f)
		}
	}
	if len(p.Files) == 0 {
		l.pkgs[dir] = nil
		return nil, nil
	}
	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	// Check never fully fails here: the Error hook swallows
	// diagnostics so Info keeps whatever resolved, and the returned
	// package is usable even when partially broken.
	//osclint:ignore errprop Check's error is the first diagnostic, already collected in TypeErrors by the Error hook
	p.Types, _ = conf.Check(p.Path, l.Fset, p.Files, p.Info)
	l.pkgs[dir] = p
	return p, nil
}

func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// Callee resolves the function object a call invokes, through plain
// identifiers and selectors alike. It returns nil for builtins,
// conversions, and calls the type-checker could not resolve.
func (p *Package) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	obj, _ := p.Info.Uses[id].(*types.Func)
	return obj
}

// IsErrorType reports whether t is the predeclared error interface.
func IsErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// Position resolves a node's source position.
func (p *Package) Position(n ast.Node) token.Position {
	return p.Fset.Position(n.Pos())
}

// Findingf builds a Finding anchored at n.
func (p *Package) Findingf(n ast.Node, rule, format string, args ...any) Finding {
	return Finding{Pos: p.Position(n), Rule: rule, Message: fmt.Sprintf(format, args...)}
}
