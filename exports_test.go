package topoctl

// TestExportsHaveProductionCallers keeps test scaffolding out of the
// production packages: every exported function, and every exported method
// of an exported type, under internal/ must be referenced by some non-test
// file of this module or of the bench/ module. Reference oracles belong in
// a _test.go file or in a package only tests import (graph/graphtest).
// TestKnobsHaveProductionSetters does the same for Options/Config fields.

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
	"sync"
	"testing"
)

func TestExportsHaveProductionCallers(t *testing.T) {
	rep, err := rootReport()
	if err != nil {
		t.Fatal(err)
	}
	if unused := rep.unusedExports; len(unused) > 0 {
		t.Errorf("%d exported identifiers under internal/ have no caller outside _test.go files; "+
			"move test oracles into test code and delete the rest:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// TestKnobsHaveProductionSetters keeps one-value options out of the
// configuration structs: every exported field of an exported *Options or
// *Config struct under internal/ must be written, as a composite-literal key
// or on the left of an assignment, by some non-test file outside its own
// package. A knob only tests or nothing sets is a constant.
func TestKnobsHaveProductionSetters(t *testing.T) {
	rep, err := rootReport()
	if err != nil {
		t.Fatal(err)
	}
	if unset := rep.unsetKnobs; len(unset) > 0 {
		t.Errorf("%d Options/Config fields under internal/ have no setter outside _test.go files and "+
			"their own package; make each a constant, or an unexported field its own tests set:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
}

// TestExportGateFixture runs both gates on a small module pair. Beside one
// planted unused export sits every kind of identifier the export gate must
// let through: a String method, a method that satisfies the fixture's own
// interface, a package only a test imports, and an export only the second
// module calls. Beside one planted knob that only a test sets sit a knob
// only the second module sets and one set by an assignment in another
// package.
func TestExportGateFixture(t *testing.T) {
	root := filepath.Join("testdata", "exportgate")
	rep, err := gate(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	shape := filepath.Join(root, "internal", "shape", "shape.go")
	if got, want := rep.unusedExports, []string{shape + ":30: shape.Planted"}; !slices.Equal(got, want) {
		t.Errorf("export gate reported %q, want %q", got, want)
	}
	if got, want := rep.unsetKnobs, []string{shape + ":36: shape.Options.Planted"}; !slices.Equal(got, want) {
		t.Errorf("knob gate reported %q, want %q", got, want)
	}
}

// report is what the two gates find in one set of modules.
type report struct{ unusedExports, unsetKnobs []string }

// rootReport runs both gates on this module and bench/ once, so the two
// tests share one go list and type-check.
var rootReport = sync.OnceValues(func() (report, error) { return gate(".", "bench") })

// gate loads the modules and runs both gates. It keeps only the reports:
// the type-checked program, standard library included, is garbage once it
// returns, so it does not slow the collections of later tests.
func gate(modules ...string) (report, error) {
	p, err := load(modules...)
	if err != nil {
		return report{}, err
	}
	return report{p.unusedExports(), p.unsetKnobs()}, nil
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

// program is the type-checked non-test code of a set of modules: the first
// is the one whose internal/ packages are audited; later ones, such as
// bench/, only contribute callers and setters.
type program struct {
	c     *checker
	order []string
	// audited holds the internal/ packages of the first module that some
	// non-test file imports; a package only tests import is exempt.
	audited map[string]bool
}

// load lists and type-checks the non-test files of the given modules.
func load(modules ...string) (*program, error) {
	byPath := map[string]*listedPackage{}
	internal := map[string]bool{}
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
			internal[p.ImportPath] = i == 0 && strings.Contains(p.ImportPath+"/", "/internal/")
		}
	}
	audited := map[string]bool{}
	for _, p := range byPath {
		for _, imp := range p.Imports {
			if internal[imp] {
				audited[imp] = true
			}
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
	return &program{c: c, order: order, audited: audited}, nil
}

// unusedExports returns "file:line: pkg.Name" for every exported
// package-level function, or exported method of an exported type, in an
// audited package that no non-test file references. It exempts methods
// that satisfy an interface declared anywhere in the import graph.
func (p *program) unusedExports() []string {
	c := p.c
	// Candidates, keyed by their object; decl spans let a function's
	// recursive calls to itself not count as callers.
	type candidate struct {
		name     string
		pos, end token.Pos
	}
	cands := map[types.Object]candidate{}
	ifaces := c.interfaces()
	for _, path := range p.order {
		if !p.audited[path] {
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
	var unused []string
	for _, cd := range cands {
		unused = append(unused, p.where(cd.pos, cd.name))
	}
	slices.Sort(unused)
	return unused
}

// unsetKnobs returns "file:line: pkg.Type.Field" for every exported,
// non-embedded field of an exported struct type named *Options or *Config
// in an audited package that no non-test file outside that package writes.
// A write is a composite-literal key or a selector on the left of an
// assignment.
func (p *program) unsetKnobs() []string {
	c := p.c
	cands := map[*types.Var]string{}
	for _, path := range p.order {
		if !p.audited[path] {
			continue
		}
		scope := c.pkgs[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Anonymous() {
					cands[f] = c.pkgs[path].Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	for _, path := range p.order {
		info := c.info[path]
		written := func(id *ast.Ident) {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg().Path() != path {
				delete(cands, v.Origin())
			}
		}
		for _, f := range c.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written(id)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							written(sel.Sel)
						}
					}
				}
				return true
			})
		}
	}
	var unset []string
	for v, name := range cands {
		unset = append(unset, p.where(v.Pos(), name))
	}
	slices.Sort(unset)
	return unset
}

// where formats pos as "file:line: name", the file relative to the working
// directory.
func (p *program) where(pos token.Pos, name string) string {
	at := p.c.fset.Position(pos)
	file := at.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, file); err == nil {
			file = rel
		}
	}
	return fmt.Sprintf("%s:%d: %s", file, at.Line, name)
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
