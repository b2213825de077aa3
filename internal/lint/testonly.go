package lint

import (
	"go/ast"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// TestOnly keeps test machinery out of production packages: a
// package-level declaration in an internal/ package that no non-test
// file of the module names outside the declaration itself serves only
// tests. It belongs in a _test.go file of the package it checks, or
// nowhere.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "no package-level declaration in internal/ that only tests use",
	Run:  runTestOnly,
}

// testOnlyExempt are the names the rule never flags: the entry points
// the toolchain calls and the blank name.
var testOnlyExempt = map[string]bool{"init": true, "main": true, "_": true}

// testOnlyExemptMethods are the method names that fmt and errors call
// through their interfaces (error, fmt.Stringer, the Unwrap chain).
var testOnlyExemptMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true}

func runTestOnly(p *Package) []Finding {
	if !p.IsInternal() || strings.HasSuffix(p.Path, "/internal/engine/enginetest") {
		return nil
	}
	uses, err := p.loader.identUses(p.Dir)
	if err != nil {
		return []Finding{p.Findingf(p.Files[0].Name, "testonly", "cannot count the module's identifiers: %v", err)}
	}
	// A method's receiver names its type without using it: a type that
	// only its own methods name serves nothing they do not.
	receivers := map[string]int{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				receivers[receiverType(fd)]++
			}
		}
	}
	var out []Finding
	check := func(kind string, name *ast.Ident, decl ast.Node) {
		own := identsNamed(decl, name.Name)
		if kind == "type" {
			own += receivers[name.Name]
		}
		if testOnlyExempt[name.Name] || uses[name.Name] > own {
			return
		}
		out = append(out, p.Findingf(name, "testonly",
			"%s %s is used only by tests: delete it, move it into a _test.go file, or annotate why it stays",
			kind, name.Name))
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					check("func", d.Name, d)
				} else if !testOnlyExemptMethods[d.Name.Name] {
					check("method", d.Name, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					// A grouped spec spans itself; an ungrouped one
					// spans the whole declaration, doc comment included.
					var span ast.Node = s
					if !d.Lparen.IsValid() {
						span = d
					}
					switch s := s.(type) {
					case *ast.TypeSpec:
						check("type", s.Name, span)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							check(d.Tok.String(), n, span)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverType returns the name of a method's receiver base type: T
// for receivers T, *T, T[P] and *T[P, Q].
func receiverType(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// identsNamed counts the identifiers called name inside n.
func identsNamed(n ast.Node, name string) int {
	c := 0
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			c++
		}
		return true
	})
	return c
}

// identUses returns, per name, the number of identifier tokens in the
// module's non-test .go files: every directory an ./... walk reaches,
// bench/ included, plus dir itself (a testdata fixture lies outside
// the walk). The module scan runs once per Loader, so a run over one
// package judges it exactly as a ./... run does. Comments and strings
// are not identifiers, so a name mentioned only there stays unused.
func (l *Loader) identUses(dir string) (map[string]int, error) {
	if l.idents == nil {
		l.idents, l.identDirs = map[string]int{}, map[string]bool{}
		dirs, err := ExpandPatterns(l.ModRoot, nil)
		for _, d := range dirs {
			if err == nil {
				err = l.scanIdents(d)
			}
		}
		if err != nil {
			// Partial counts would flag used names: scan afresh next time.
			l.idents = nil
			return nil, err
		}
	}
	if err := l.scanIdents(dir); err != nil {
		return nil, err
	}
	return l.idents, nil
}

// scanIdents adds dir's non-test files to the identifier counts once.
func (l *Loader) scanIdents(dir string) error {
	if l.identDirs[dir] {
		return nil
	}
	l.identDirs[dir] = true
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return err
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		var s scanner.Scanner
		s.Init(token.NewFileSet().AddFile(name, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				l.idents[lit]++
			}
		}
	}
	return nil
}
