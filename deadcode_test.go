// Reachability audit (`make docscheck`): every top-level function and
// method under internal/ must be reachable from code that ships. The
// roots are every main and init function, every package-level var
// initializer, the exported API of the root facade, and the separate
// benchmark module (its tests included). A helper that only tests call
// belongs in a _test.go file; the few kept for tests in other packages
// sit on deadcodeAllowlist, each with its reason.
//
// Reachability follows references, not calls: a function is reached
// when a reached declaration names it. A method is reached when it is
// named through a selector, or when its receiver type is reached and
// its name is the name of any interface method (so a call through an
// interface, or a stdlib interface such as fmt.Stringer, keeps it).
// Methods of re-exported facade types count only when something calls
// them. The audit uses only go list and the standard library's
// go/parser and go/types.
package fttt_test

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
	"sort"
	"strings"
	"sync"
	"testing"
)

// deadcodeAllowlist names the functions under internal/ that no root
// reaches but that stay in non-test code, with the reason each stays:
// each is used by tests in more than one package, which a _test.go
// file cannot share.
var deadcodeAllowlist = map[string]string{
	"internal/core.MultiTracker.FaultScheduler": "tests seek a target's fault clock: golden_trace_test.go and core's snapshot_test.go, parity_test.go",
	"internal/faults.Scheduler.Crashed":         "per-node crash state read by core's snapshot_test.go (restore parity) and faults_test.go",
	"internal/geom.Point.Eq":                    "Eps-tolerant point comparison in the deploy, field, match, mobility, trace and geom tests",
	"internal/vector.FromInts":                  "ternary vector literals in the sampling, field (property_test.go) and vector tests",
	"internal/vector.PairAt":                    "pair-index inverse in the byz, match (weighted_test.go) and vector tests",
}

// listedPkg is the part of `go list -json` output the audit reads.
type listedPkg struct {
	ImportPath  string
	Name        string
	Dir         string
	GoFiles     []string
	TestGoFiles []string
	Standard    bool
	Module      *struct {
		Path string
		Main bool
	}
}

// goListDeps returns `go list -deps -json ./...` run in dir, in
// dependency order.
func goListDeps(dir string) ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.String())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

var (
	stdOnce     sync.Once
	stdFset     *token.FileSet
	stdImporter types.ImporterFrom
)

// stdlib returns one shared source importer for the standard library.
// Cgo is switched off so that packages such as net type-check from
// their pure-Go files instead of running the cgo tool.
func stdlib() (*token.FileSet, types.ImporterFrom) {
	stdOnce.Do(func() {
		build.Default.CgoEnabled = false
		stdFset = token.NewFileSet()
		stdImporter = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
	})
	return stdFset, stdImporter
}

// moduleImporter resolves module packages to the ones already checked
// and everything else to the standard library.
type moduleImporter map[string]*types.Package

func (m moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m moduleImporter) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	_, std := stdlib()
	return std.ImportFrom(path, "", 0)
}

// checkedPkg is one type-checked module package.
type checkedPkg struct {
	listedPkg
	files []*ast.File
	info  *types.Info
}

// unreachedFuncs type-checks the non-test packages of the module in
// mainDir and of the extra modules (whose code, tests included, is all
// root), and returns "pkg.Func" or "pkg.Type.Method" (pkg relative to
// the main module) with its position for every top-level function or
// method under the main module's internal/ that no root reaches.
func unreachedFuncs(mainDir string, extraDirs ...string) (map[string]string, error) {
	fset, _ := stdlib()
	var mainMod string
	var order []*checkedPkg
	seen := map[string]bool{}
	for i, dir := range append([]string{mainDir}, extraDirs...) {
		listed, err := goListDeps(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Standard || seen[p.ImportPath] || p.Module == nil {
				continue
			}
			seen[p.ImportPath] = true
			if i == 0 && p.Module.Main {
				mainMod = p.Module.Path
			}
			order = append(order, &checkedPkg{listedPkg: p})
		}
	}
	if mainMod == "" {
		return nil, fmt.Errorf("no main module package under %s", mainDir)
	}

	imp := moduleImporter{}
	for _, p := range order {
		names := p.GoFiles
		if p.Module.Path != mainMod {
			names = append(names, p.TestGoFiles...)
		}
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		imp[p.ImportPath] = tp
	}

	// Method names of every interface in sight: the module's own
	// (declared or literal) and every named one in the standard
	// library packages the module imports, directly or not.
	ifaceNames := map[string]bool{}
	stdSeen := map[*types.Package]bool{}
	var walkStd func(*types.Package)
	walkStd = func(pkg *types.Package) {
		if stdSeen[pkg] {
			return
		}
		stdSeen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if it, ok := scope.Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceNames[it.Method(i).Name()] = true
				}
			}
		}
		for _, dep := range pkg.Imports() {
			walkStd(dep)
		}
	}
	for _, p := range order {
		for _, dep := range imp[p.ImportPath].Imports() {
			if _, own := imp[dep.Path()]; !own {
				walkStd(dep)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							ifaceNames[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	// The reference graph: each declared object points at every
	// module object its declaration names.
	canon := func(o types.Object) types.Object {
		switch o := o.(type) {
		case *types.Func:
			return o.Origin()
		case *types.Var:
			return o.Origin()
		}
		return o
	}
	refs := map[types.Object][]types.Object{}
	reached := map[types.Object]bool{}
	var work []types.Object
	reach := func(o types.Object) {
		if o = canon(o); !reached[o] {
			reached[o] = true
			work = append(work, o)
		}
	}
	for _, p := range order {
		extra := p.Module.Path != mainMod
		facade := p.ImportPath == mainMod
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var uses []types.Object
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if o := p.info.Uses[id]; o != nil && o.Pkg() != nil && imp[o.Pkg().Path()] == o.Pkg() {
							uses = append(uses, o)
						}
					}
					return true
				})
				var defs []types.Object
				root := extra
				switch d := decl.(type) {
				case *ast.FuncDecl:
					defs = append(defs, p.info.Defs[d.Name])
					name := d.Name.Name
					root = root || name == "init" || (name == "main" && d.Recv == nil && p.Name == "main") ||
						(facade && d.Name.IsExported() && (d.Recv == nil || ast.IsExported(recvName(d))))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							defs = append(defs, p.info.Defs[s.Name])
							root = root || (facade && s.Name.IsExported())
						case *ast.ValueSpec:
							for _, name := range s.Names {
								defs = append(defs, p.info.Defs[name])
								root = root || d.Tok == token.VAR || (facade && name.IsExported())
							}
						}
					}
				}
				for _, o := range defs {
					if o != nil {
						refs[o] = append(refs[o], uses...)
					}
				}
				if root {
					for _, o := range append(defs, uses...) {
						if o != nil {
							reach(o)
						}
					}
				}
			}
		}
	}

	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range refs[o] {
			reach(r)
		}
		if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); ifaceNames[m.Name()] {
						reach(m)
					}
				}
			}
		}
	}

	unreached := map[string]string{}
	for _, p := range order {
		if !strings.HasPrefix(p.ImportPath, mainMod+"/internal/") {
			continue
		}
		rel := strings.TrimPrefix(p.ImportPath, mainMod+"/")
		for _, f := range p.files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Name.Name == "init" || reached[p.info.Defs[d.Name]] {
					continue
				}
				name := rel + "." + d.Name.Name
				if d.Recv != nil {
					name = rel + "." + recvName(d) + "." + d.Name.Name
				}
				pos := fset.Position(d.Pos())
				unreached[name] = fmt.Sprintf("%s:%d", strings.TrimPrefix(pos.Filename, mainDir+string(filepath.Separator)), pos.Line)
			}
		}
	}
	return unreached, nil
}

// recvName is the base type name of a method's receiver.
func recvName(d *ast.FuncDecl) string {
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprint(t)
		}
	}
}

func TestNoUnreachedInternalFuncs(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	unreached, err := unreachedFuncs(root, filepath.Join(root, "benchmark"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range unreached {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := deadcodeAllowlist[name]; !ok {
			t.Errorf("%s: %s is reached by no command, example, facade call or benchmark; delete it or move it to a _test.go file", unreached[name], name)
		}
	}
	for name := range deadcodeAllowlist {
		if _, ok := unreached[name]; !ok {
			t.Errorf("deadcodeAllowlist entry %s is reached or gone; drop the entry", name)
		}
	}
}

// TestUnreachedFuncsDetects proves the audit flags a planted unreached
// function and a planted unreached method, and keeps what a main calls
// and a method of a reached type that satisfies a stdlib interface
// (String, through fmt.Stringer).
func TestUnreachedFuncsDetects(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module planted\n\ngo 1.22\n",
		"main.go": `package main

import (
	"fmt"

	"planted/internal/p"
)

func main() {
	t := p.Used()
	t.Live()
	fmt.Println(t)
}
`,
		"internal/p/p.go": `package p

type T struct{}

func Used() T { return T{} }

func Unused() {}

func (T) Live() {}

func (T) String() string { return "t" }

func (T) Dead() {}
`,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unreached, err := unreachedFuncs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range unreached {
		names = append(names, name)
	}
	sort.Strings(names)
	if want := []string{"internal/p.T.Dead", "internal/p.Unused"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("unreached = %v, want %v", names, want)
	}
}
