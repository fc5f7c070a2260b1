package murphy

// The internal/ packages are reachable only from this repository, so an
// exported name there that no non-test code uses is dead code that its own
// tests keep alive. TestInternalExportsHaveCallers type-checks every non-test
// file of this module and of murphy/perfbench (whose benchmark drivers import
// internal packages, so their calls count) and fails on any exported internal
// func, method, type or package-level var that no non-test identifier uses,
// unless internalExportAllowlist names it with a reason. It also fails on an
// allowlist entry that no longer exists or that has gained a caller.
//
// Uses are resolved by go/types, not by name: a dead Len is not kept alive by
// some other type's Len. A method whose name belongs to an interface that its
// receiver implements (String, Fit, ReadRawWindow, ...) is not flagged, since
// calls through the interface do not name it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// internalExportAllowlist names the exported internal/ declarations that only
// tests use and that stay on purpose. A key is the package path below
// internal/, then the receiver type for a method, then the name.
var internalExportAllowlist = map[string]string{
	"core.Model.SetEvalHook":          "test hook: the chaos drill's panicking evaluator",
	"core.Model.SetRecorder":          "test hook: BenchmarkObsOverhead's disabled and enabled arms",
	"core.FactorStore.Reset":          "test hook: BenchmarkIncrementalTrain's untimed re-anchor",
	"obs.Recorder.Reset":              "test hook: zeroes a recorder between measured runs",
	"resilience.Breaker.WithClock":    "test hook: drives the breaker's cooldown without sleeping",
	"resilience.Policy.WithSleep":     "test hook: runs retry backoff without sleeping",
	"resilience.Breaker.State":        "observer: tests check the breaker's open and half-open transitions",
	"serve.Server.System":             "observer: the warm-restart tests read the daemon's factor-store stats",
	"reportstore.Store.Len":           "observer: the durability tests count recovered records",
	"tracing.Store.Len":               "observer: the microsim emit tests count collected traces",
	"tracing.Store.Traces":            "observer: the microsim emit tests read collected traces",
	"metamorph.CheckInvariants":       "library: EXPERIMENTS.md's replay recipe calls it",
	"metamorph.CheckCrossConfigs":     "library: EXPERIMENTS.md's replay recipe calls it",
	"metamorph.CheckIncrementalSlide": "library: the third check beside the replay recipe's two",
	"netmedic.Abnormality":            "library: metamorph's rescale test checks it is scale-free",
}

func TestInternalExportsHaveCallers(t *testing.T) {
	problems, err := checkInternalExports("perfbench",
		[]string{"murphy/...", "murphy/perfbench/..."}, internalExportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestInternalExportsCheckFlagsFixture runs the check over a fixture module
// whose internal package holds one of each case the check must tell apart.
func TestInternalExportsCheckFlagsFixture(t *testing.T) {
	allow := map[string]string{
		"lib.Hook":    "test hook",
		"lib.Used":    "stale: main calls it",
		"lib.Removed": "stale: the fixture declares no such name",
	}
	got, err := checkInternalExports(filepath.Join("testdata", "exportguard"), []string{"./..."}, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib.OnlyTested: exported internal name has no non-test caller",
		"lib.T.OnlyTestedMethod: exported internal name has no non-test caller",
		"lib.Removed: allowlist entry names no exported internal declaration",
		"lib.Used: allowlist entry has a non-test caller or implements an interface",
	}
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("fixture check reported\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// checkInternalExports lists the packages that patterns name, with their
// dependencies, from the module in dir; type-checks their non-test files; and
// returns, sorted, one line per exported internal name without a non-test
// use that allow lacks, and one per entry of allow that is not such a name.
func checkInternalExports(dir string, patterns []string, allow map[string]string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}

	fset := token.NewFileSet()
	stdlib := importer.ForCompiler(fset, "gc", nil)
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return stdlib.Import(path)
	})}

	used := map[types.Object]bool{}
	var internal []*types.Package
	ifaces := map[*types.Interface]bool{}
	// go list -deps prints each package after its dependencies.
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp struct {
			ImportPath, Dir string
			GoFiles         []string
			Standard        bool
		}
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		if lp.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
		if strings.Contains(lp.ImportPath, "/internal/") {
			internal = append(internal, pkg)
		}
	}
	addNamedInterfaces(ifaces, checked)
	byMethod := map[string][]*types.Interface{}
	for it := range ifaces {
		if !it.IsMethodSet() {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	// implements reports whether an interface that named or *named
	// implements has a method called method.
	implements := func(named *types.Named, method string) bool {
		for _, it := range byMethod[method] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	declared := map[string]bool{}
	uncalled := map[string]bool{}
	note := func(key string, obj types.Object, exempt bool) {
		if !obj.Exported() {
			return
		}
		declared[key] = true
		if !used[obj] && !exempt {
			uncalled[key] = true
		}
	}
	for _, pkg := range internal {
		prefix := pkg.Path()[strings.Index(pkg.Path(), "/internal/")+len("/internal/"):] + "."
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch obj.(type) {
			case *types.Func, *types.Var, *types.TypeName:
				note(prefix+name, obj, false)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				note(prefix+name+"."+m.Name(), m, implements(named, m.Name()))
			}
		}
	}

	var problems []string
	for key := range uncalled {
		if _, ok := allow[key]; !ok {
			problems = append(problems, key+": exported internal name has no non-test caller")
		}
	}
	for key := range allow {
		switch {
		case !declared[key]:
			problems = append(problems, key+": allowlist entry names no exported internal declaration")
		case !uncalled[key]:
			problems = append(problems, key+": allowlist entry has a non-test caller or implements an interface")
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// addNamedInterfaces adds to ifaces the universe's error and the non-generic
// interface types declared at package level in pkgs and in every package
// they import.
func addNamedInterfaces(ifaces map[*types.Interface]bool, pkgs map[string]*types.Package) {
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg)
	}
}

// origin maps an instantiated generic function or method to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
