package topoctl

// TestExportsHaveProductionCallers keeps test scaffolding out of the
// production packages: every exported function, and every exported method
// of an exported type, under internal/ must be referenced by some non-test
// file of this module or of the bench/ module. Reference oracles belong in
// a _test.go file or in a package only tests import (graph/graphtest).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestExportsHaveProductionCallers(t *testing.T) {
	unused, err := unusedExports(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	if len(unused) > 0 {
		t.Errorf("%d exported identifiers under internal/ have no caller outside _test.go files; "+
			"move test oracles into test code and delete the rest:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// TestExportGateFixture runs the gate on a small module pair with one
// planted unused export next to every kind of identifier the gate must let
// through: a String method, a method that satisfies the fixture's own
// interface, a package only a test imports, and an export only the second
// module calls.
func TestExportGateFixture(t *testing.T) {
	root := filepath.Join("testdata", "exportgate")
	unused, err := unusedExports(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(root, "internal", "shape", "shape.go") + ":29: shape.Planted"}
	if !slices.Equal(unused, want) {
		t.Errorf("gate reported %q, want %q", unused, want)
	}
}

// listedPackage is the part of `go list -json` the gate reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Imports    []string
}

// goList lists the packages of the module rooted at dir; GoFiles and
// Imports cover non-test files only.
func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// unusedExports type-checks the non-test files of the given modules (the
// first is the one whose internal/ packages are audited; later ones, such
// as bench/, only contribute callers) and returns "file:line: pkg.Name"
// for every exported package-level function, or exported method of an
// exported type, in an internal/ package of the first module that no
// non-test file references. It exempts methods that satisfy an interface
// declared anywhere in the import graph, and packages that no non-test
// file imports. File names are relative to the working directory.
func unusedExports(modules ...string) ([]string, error) {
	byPath := map[string]*listedPackage{}
	audited := map[string]bool{}
	var order []string
	for i, dir := range modules {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if i > 0 && byPath[p.ImportPath] != nil {
				continue // the replaced parent module, listed again
			}
			byPath[p.ImportPath] = p
			order = append(order, p.ImportPath)
			audited[p.ImportPath] = i == 0 && strings.Contains(p.ImportPath+"/", "/internal/")
		}
	}
	prodImported := map[string]bool{}
	for _, p := range byPath {
		for _, imp := range p.Imports {
			prodImported[imp] = true
		}
	}

	// The standard library is type-checked from source without cgo, which
	// matches the CGO_ENABLED=0 file lists above.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	c := &checker{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		listed: byPath,
		pkgs:   map[string]*types.Package{},
		files:  map[string][]*ast.File{},
		info:   map[string]*types.Info{},
	}
	for _, path := range order {
		if _, err := c.Import(path); err != nil {
			return nil, err
		}
	}

	// Candidates, keyed by their object; decl spans let a function's
	// recursive calls to itself not count as callers.
	type candidate struct {
		name     string
		pos, end token.Pos
	}
	cands := map[types.Object]candidate{}
	ifaces := c.interfaces()
	for _, path := range order {
		if !audited[path] || !prodImported[path] {
			continue
		}
		info := c.info[path]
		for _, f := range c.files[path] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				obj := info.Defs[fd.Name]
				name := c.pkgs[path].Name() + "." + fd.Name.Name
				if fd.Recv != nil {
					named := receiverType(obj)
					if named == nil || !named.Obj().Exported() || satisfiesInterface(named, fd.Name.Name, ifaces) {
						continue
					}
					name = c.pkgs[path].Name() + "." + named.Obj().Name() + "." + fd.Name.Name
				}
				cands[obj] = candidate{name, fd.Pos(), fd.End()}
			}
		}
	}
	for _, info := range c.info {
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if cd, ok := cands[obj]; ok && (id.Pos() < cd.pos || id.Pos() >= cd.end) {
				delete(cands, obj)
			}
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var unused []string
	for _, cd := range cands {
		p := fset.Position(cd.pos)
		file := p.Filename
		if rel, err := filepath.Rel(wd, file); err == nil {
			file = rel
		}
		unused = append(unused, fmt.Sprintf("%s:%d: %s", file, p.Line, cd.name))
	}
	slices.Sort(unused)
	return unused, nil
}

// checker type-checks listed packages from source on first import and
// hands every other import path to the standard library's source importer.
type checker struct {
	fset   *token.FileSet
	std    types.Importer
	listed map[string]*listedPackage
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File
	info   map[string]*types.Info
}

func (c *checker) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	lp, ok := c.listed[path]
	if !ok {
		p, err := c.std.Import(path)
		c.pkgs[path] = p
		return p, err
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	p, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	c.pkgs[path], c.files[path], c.info[path] = p, files, info
	return p, nil
}

// interfaces returns every non-generic interface with at least one method
// declared at package level anywhere in the import graph, plus error.
func (c *checker) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range c.pkgs {
		walk(p)
	}
	return out
}

// receiverType is the named type a method is declared on, or nil.
func receiverType(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	t := fn.Signature().Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// satisfiesInterface reports whether method is part of an interface that
// the named type (or a pointer to it) implements.
func satisfiesInterface(named *types.Named, method string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}
