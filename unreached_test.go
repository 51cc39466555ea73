package nvwa_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllow exempts names in internal/ that no non-test file reaches.
// Keys are "pkg.Name" for top-level names and "pkg.Type.Method" for
// methods. Every reason starts with one of four categories:
//
//	interface: the method satisfies an interface the caller reaches
//	           through the standard library or a type switch
//	facade:    the method is on a type nvwa.go re-exports
//	oracle:    tests compare production against it
//	invariant: another package's tests check an invariant through it
//
// An entry whose name is now reached, or no longer exists, fails the
// guard, so the list cannot go stale.
var reachAllow = map[string]string{
	"accel.ApplySteals":             "oracle: replays a StealLog; tests and FuzzStealSchedule check PlanBalanced's partition against it",
	"accel.MergeReportsReference":   "oracle: the specification merge; TestMergeAccMatchesReference checks MergeAcc's merged Report against it",
	"align.ScoreCigar":              "oracle: recomputes a path's score; tests check Local and ExtendWithScratch CIGARs against it",
	"align.Local":                   "oracle: the full local DP with a private workspace; FuzzSystolicVsSoftwareDP and systolic's tests check the wavefront's scores against it",
	"align.ExtendBandReference":     "oracle: the full-row DP at band w with the 2w retry; FuzzExtendBandedVsFull and pipeline's refkernels tests check ExtendWithScratch against it",
	"fmindex.Seeder.SeedsReference": "oracle: allocating three-pass seeding; fmindex's fuzz and workspace tests and pipeline's TestReferenceKernelsIdentical check SeedsWS against it",
	"systolic.Array":                "oracle: the cycle-by-cycle wavefront; FuzzSystolicVsSoftwareDP checks Formula 3 (Latency) and align's DP against it",
	"systolic.Array.Run":            "oracle: runs the wavefront systolic.Array models",
	"core.HitArena.Live":            "invariant: accel's checkpoint tests and coordinator's oracle test assert a drained arena holds no live IDs",
	"obs.Invariants.Checks":         "invariant: accel and experiments tests assert the checker actually ran",
	"sim.BusyTracker.Busy":          "invariant: su's tests assert a unit's tracker follows its control state",
}

var reachCategories = []string{"interface:", "facade:", "oracle:", "invariant:"}

// reachRoots are the trees the guards load: internal/ is checked, and
// every tree (internal/ included) can reach a name. perfbench is its own
// module but imports internal/, so its callers count.
var reachRoots = []string{"internal", "cmd", "examples", "perfbench", "nvwa.go"}

const reachModule = "nvwa"

// srcModule is a module's non-test source, type-checked from source in
// import order; the standard library comes from its export data.
type srcModule struct {
	fset   *token.FileSet
	module string
	pkgs   map[string]*srcPkg // by import path
	order  []*srcPkg          // dependencies first
	std    types.Importer
}

type srcPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
	state int // 0 unchecked, 1 checking, 2 checked
}

var repoSrc = sync.OnceValues(func() (*srcModule, error) {
	return loadModule(".", reachModule)
})

// loadModule parses the non-test .go files under the reach roots of the
// module rooted at dir (a missing root holds none), skipping testdata
// directories and files the host's build constraints exclude, and
// type-checks every package.
func loadModule(dir, module string) (*srcModule, error) {
	m := &srcModule{fset: token.NewFileSet(), module: module, pkgs: map[string]*srcPkg{}, std: importer.Default()}
	for _, root := range reachRoots {
		if _, err := os.Stat(filepath.Join(dir, root)); errors.Is(err, fs.ErrNotExist) {
			continue
		}
		err := filepath.WalkDir(filepath.Join(dir, root), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
				return err
			}
			rel, err := filepath.Rel(dir, filepath.Dir(p))
			if err != nil {
				return err
			}
			ip := module
			if rel = filepath.ToSlash(rel); rel != "." {
				ip = module + "/" + rel
			}
			f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := m.pkgs[ip]
			if pkg == nil {
				pkg = &srcPkg{path: ip}
				m.pkgs[ip] = pkg
			}
			pkg.files = append(pkg.files, f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(m.pkgs))
	for ip := range m.pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := m.Import(ip); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Import type-checks a module package on first use, after the packages
// it imports; every other path is the standard library's.
func (m *srcModule) Import(ip string) (*types.Package, error) {
	pkg := m.pkgs[ip]
	if pkg == nil {
		return m.std.Import(ip)
	}
	switch pkg.state {
	case 1:
		return nil, fmt.Errorf("import cycle through %s", ip)
	case 2:
		return pkg.types, nil
	}
	pkg.state = 1
	pkg.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(ip, m.fset, pkg.files, pkg.info)
	if err != nil {
		return nil, err
	}
	pkg.types, pkg.state = tp, 2
	m.order = append(m.order, pkg)
	return tp, nil
}

// checked reports whether the guards check declarations in package ip.
func (m *srcModule) checked(ip string) bool {
	return strings.HasPrefix(ip, m.module+"/internal/")
}

// origin maps an instantiated function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// span is a half-open source range.
type span struct{ pos, end token.Pos }

func within(p token.Pos, spans []span) bool {
	for _, s := range spans {
		if s.pos <= p && p < s.end {
			return true
		}
	}
	return false
}

// namedOf strips pointers and aliases down to a defined type.
func namedOf(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

type reachDecl struct {
	obj   types.Object
	key   string // pkg.Name or pkg.Type.Method
	own   []span // its own declaration, and a type's methods
	where token.Position
}

// TestNoUnreachedExports fails on every exported name, and every
// function or method, in internal/ that no non-test file reaches,
// unless reachAllow exempts it. See DESIGN.md, "Reachability guard".
func TestNoUnreachedExports(t *testing.T) {
	m, err := repoSrc()
	if err != nil {
		t.Fatal(err)
	}
	unreached, stale := m.unreached(reachAllow)
	for _, u := range unreached {
		t.Errorf("unreached: %s", u)
	}
	for _, k := range stale {
		t.Errorf("stale allow-list entry: %s", k)
	}
	for k, why := range reachAllow {
		if !hasCategory(why) {
			t.Errorf("allow-list entry %s: reason %q names none of %v", k, why, reachCategories)
		}
	}
}

func hasCategory(why string) bool {
	for _, c := range reachCategories {
		if strings.HasPrefix(why, c) {
			return true
		}
	}
	return false
}

// decls lists the checked declarations: exported names, and every
// function and method.
func (m *srcModule) decls() []reachDecl {
	var out []reachDecl
	for _, pkg := range m.order {
		if !m.checked(pkg.path) {
			continue
		}
		base := path.Base(pkg.path)
		methods := map[types.Object][]span{} // receiver type -> its methods
		var ds []reachDecl
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := pkg.info.Defs[d.Name].(*types.Func)
					key := base + "." + d.Name.Name
					if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
						tn := namedOf(recv.Type()).Obj()
						methods[tn] = append(methods[tn], span{d.Pos(), d.End()})
						key = base + "." + tn.Name() + "." + d.Name.Name
					} else if d.Name.Name == "init" || d.Name.Name == "main" {
						continue
					}
					ds = append(ds, reachDecl{obj: obj, key: key, own: []span{{d.Pos(), d.End()}}})
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() {
								ds = append(ds, reachDecl{obj: pkg.info.Defs[sp.Name], key: base + "." + sp.Name.Name, own: []span{{sp.Pos(), sp.End()}}})
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								if n.IsExported() {
									ds = append(ds, reachDecl{obj: pkg.info.Defs[n], key: base + "." + n.Name, own: []span{{sp.Pos(), sp.End()}}})
								}
							}
						}
					}
				}
			}
		}
		for _, d := range ds {
			if _, ok := d.obj.(*types.TypeName); ok {
				d.own = append(d.own, methods[d.obj]...)
			}
			d.where = m.fset.Position(d.obj.Pos())
			out = append(out, d)
		}
	}
	return out
}

// reached returns the objects non-test code reaches, each with the
// positions that reach it: every use, plus a position-free entry for
// methods reached through an interface or the facade.
func (m *srcModule) reached() map[types.Object][]token.Pos {
	uses := map[types.Object][]token.Pos{}
	reach := func(t types.Type, name string) {
		if fn := methodOf(t, name); fn != nil {
			uses[fn.Origin()] = append(uses[fn.Origin()], token.NoPos)
		}
	}
	ifaceMethods := map[*types.Func]bool{} // interface methods non-test code calls
	for _, pkg := range m.order {
		for id, obj := range pkg.info.Uses {
			obj = origin(obj)
			uses[obj] = append(uses[obj], id.Pos())
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceMethods[fn] = true
				}
			}
		}
		for _, f := range pkg.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					// A concrete value handed to the standard library as an
					// interface has that interface's methods called; one
					// handed to fmt, its String or Error.
					sig, ok := pkg.info.Types[x.Fun].Type.(*types.Signature)
					callee := calleePkg(pkg.info, x.Fun)
					if !ok || callee == nil || m.pkgs[callee.Path()] != nil {
						return true
					}
					for i, a := range x.Args {
						pt, at := paramType(sig, i), pkg.info.Types[a].Type
						if pt == nil || at == nil || types.IsInterface(at) {
							continue
						}
						if it, ok := pt.Underlying().(*types.Interface); ok {
							for j := 0; j < it.NumMethods(); j++ {
								reach(at, it.Method(j).Name())
							}
							if callee.Path() == "fmt" {
								reach(at, "String")
								reach(at, "Error")
							}
						}
					}
				case *ast.TypeSpec:
					// The facade re-exports a type by alias: its methods
					// are the public API.
					if pkg.path == m.module && x.Assign.IsValid() {
						if n := namedOf(pkg.info.Defs[x.Name].Type()); n != nil {
							for i := 0; i < n.NumMethods(); i++ {
								reach(n, n.Method(i).Name())
							}
						}
					}
				}
				return true
			})
		}
	}
	for _, pkg := range m.order {
		if !m.checked(pkg.path) {
			continue
		}
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams() != nil {
				continue
			}
			for im := range ifaceMethods {
				it := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
					reach(n, im.Name())
				}
			}
		}
	}
	return uses
}

// calleePkg returns the package declaring a called function or method,
// or nil for conversions, builtins and function values.
func calleePkg(info *types.Info, fun ast.Expr) *types.Package {
	var id *ast.Ident
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.IndexExpr:
		return calleePkg(info, f.X)
	}
	if id == nil {
		return nil
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Pkg()
	}
	return nil
}

// paramType is the type of argument i of a call to sig.
func paramType(sig *types.Signature, i int) types.Type {
	ps := sig.Params()
	if sig.Variadic() && i >= ps.Len()-1 {
		return ps.At(ps.Len() - 1).Type().(*types.Slice).Elem()
	}
	if i < ps.Len() {
		return ps.At(i).Type()
	}
	return nil
}

// methodOf returns the declared method name of t's method set (its
// pointer's, for a defined non-pointer type), or nil.
func methodOf(t types.Type, name string) *types.Func {
	if n := namedOf(t); n != nil {
		t = types.NewPointer(n)
	}
	sel := types.NewMethodSet(t).Lookup(nil, name)
	if sel == nil {
		return nil
	}
	fn, _ := sel.Obj().(*types.Func)
	return fn
}

// unreached returns the unreached, non-exempt declarations as
// "file:line pkg.Name", and the allow-list keys that are stale.
func (m *srcModule) unreached(allow map[string]string) (unreached, stale []string) {
	uses := m.reached()
	exists := map[string]bool{}
	for _, d := range m.decls() {
		exists[d.key] = true
		_, allowed := allow[d.key]
		isReached := false
		for _, p := range uses[d.obj] {
			if !within(p, d.own) {
				isReached = true
				break
			}
		}
		switch {
		case isReached && allowed:
			stale = append(stale, d.key+" (reached)")
		case !isReached && !allowed:
			unreached = append(unreached, fmt.Sprintf("%s:%d %s", d.where.Filename, d.where.Line, d.key))
		}
	}
	for k := range allow {
		if !exists[k] {
			stale = append(stale, k+" (no longer declared)")
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	return unreached, stale
}

// setterStructs are the configuration structs whose every field some
// caller must set. setterDefaults are the functions that build their
// defaults: a field set only there takes one value everywhere, so it
// belongs in a constant, not a field.
var (
	setterStructs = []string{
		"accel.Options", "core.Config", "accel.ShardedOptions", "sim.Watchdog",
		"experiments.ChaosConfig", "fault.Spec", "genome.SimulatorConfig",
	}
	setterDefaults = []string{"core.DefaultConfig", "accel.NvWaOptions", "fault.DefaultSpec"}
)

// setterAllow exempts fields, keyed "pkg.Type.Field", that no non-test
// file sets outside setterDefaults, each with the reason it stays a
// field. An entry whose field is now set, or no longer declared, fails
// the guard.
var setterAllow = map[string]string{
	"core.Config.ClockGHz": "perfbench reads opts.Config.ClockGHz to convert cycles to seconds",
}

// TestEveryOptionIsSet fails on every field of setterStructs that no
// non-test file sets outside setterDefaults, unless setterAllow exempts
// it. See DESIGN.md, "Reachability guard".
func TestEveryOptionIsSet(t *testing.T) {
	m, err := repoSrc()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.neverSet(setterStructs, setterDefaults, setterAllow) {
		t.Error(e)
	}
}

// neverSet returns the fields of structs that no non-test file sets
// outside the defaults functions and the struct's own methods (a
// withDefaults that fills zero fields sets nothing a caller chose), and
// the declarations and allow-list entries that name nothing. A field is
// set by a key of a composite literal (including one whose type an
// enclosing literal elides, or that names the struct through an alias),
// by a positional literal, or by selecting it on the left of an
// assignment or increment or under &: o.Config.NumSUs = n sets NumSUs
// and Config.
func (m *srcModule) neverSet(structs, defaults []string, allow map[string]string) []string {
	var errs []string
	lookup := func(key string) types.Object {
		dot := strings.Index(key, ".")
		for _, pkg := range m.order {
			if m.checked(pkg.path) && path.Base(pkg.path) == key[:dot] {
				return pkg.types.Scope().Lookup(key[dot+1:])
			}
		}
		return nil
	}
	// funcs returns the spans of the function declarations keep admits.
	funcs := func(keep func(*types.Func) bool) []span {
		var out []span
		for _, pkg := range m.order {
			for _, f := range pkg.files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && keep(pkg.info.Defs[fd.Name].(*types.Func)) {
						out = append(out, span{fd.Pos(), fd.End()})
					}
				}
			}
		}
		return out
	}
	isDefault := map[types.Object]bool{}
	for _, k := range defaults {
		fn, ok := lookup(k).(*types.Func)
		if !ok {
			errs = append(errs, fmt.Sprintf("setterDefaults names %s, which is not a declared function", k))
			continue
		}
		isDefault[fn] = true
	}
	skip := funcs(func(fn *types.Func) bool { return isDefault[fn] })
	sets := map[types.Object][]token.Pos{}
	mark := func(obj types.Object, at token.Pos) {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			sets[v.Origin()] = append(sets[v.Origin()], at)
		}
	}
	for _, pkg := range m.order {
		info := pkg.info
		// lhs marks the fields an assigned expression selects.
		lhs := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if s := info.Selections[x]; s != nil {
						mark(s.Obj(), x.Pos())
					}
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range pkg.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CompositeLit:
					t := info.Types[x].Type
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					st, isStruct := t.Underlying().(*types.Struct)
					for i, e := range x.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(info.Uses[id], x.Pos())
							}
						} else if isStruct {
							mark(st.Field(i), x.Pos())
						}
					}
				case *ast.AssignStmt:
					for _, e := range x.Lhs {
						lhs(e)
					}
				case *ast.IncDecStmt:
					lhs(x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						lhs(x.X)
					}
				}
				return true
			})
		}
	}
	declared := map[string]bool{}
	for _, k := range structs {
		tn, _ := lookup(k).(*types.TypeName)
		var st *types.Struct
		if tn != nil {
			st, _ = tn.Type().Underlying().(*types.Struct)
		}
		if st == nil {
			errs = append(errs, fmt.Sprintf("setterStructs names %s, which is not a declared struct", k))
			continue
		}
		own := append(funcs(func(fn *types.Func) bool {
			recv := fn.Type().(*types.Signature).Recv()
			return recv != nil && namedOf(recv.Type()).Obj() == tn
		}), skip...)
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			key := k + "." + fld.Name()
			declared[key] = true
			isSet := false
			for _, p := range sets[fld] {
				isSet = isSet || !within(p, own)
			}
			_, allowed := allow[key]
			switch {
			case isSet && allowed:
				errs = append(errs, fmt.Sprintf("stale setter allow-list entry: %s (set)", key))
			case !isSet && !allowed:
				errs = append(errs, fmt.Sprintf("never set: %s takes its default everywhere; make it a constant", key))
			}
		}
	}
	for k := range allow {
		if !declared[k] {
			errs = append(errs, fmt.Sprintf("stale setter allow-list entry: %s (no longer declared)", k))
		}
	}
	sort.Strings(errs)
	return errs
}

// TestGuardRules runs both guards over the fixture module in
// testdata/guards, whose package a declares one case of each rule.
func TestGuardRules(t *testing.T) {
	m, err := loadModule(filepath.Join("testdata", "guards"), reachModule)
	if err != nil {
		t.Fatal(err)
	}
	unreached, stale := m.unreached(nil)
	if len(stale) != 0 {
		t.Errorf("stale entries without an allow-list: %v", stale)
	}
	isUnreached := map[string]bool{}
	for _, u := range unreached {
		isUnreached[u[strings.LastIndex(u, " ")+1:]] = true
	}
	for _, c := range []struct {
		rule, key string
		want      bool // unreached
	}{
		{"a method named like another type's reached method is unreached", "a.Engine.Run", true},
		{"a method named like a field is unreached", "a.Engine.Shared", true},
		{"an unexported function nothing calls is unreached", "a.helper", true},
		{"a called method is reached", "a.Other.Run", false},
		{"an interface-dispatched method is reached", "a.Job.Fire", false},
		{"a method on an alias-re-exported type is reached", "a.Thing.Facade", false},
	} {
		if isUnreached[c.key] != c.want {
			t.Errorf("%s: %s unreached = %v, want %v", c.rule, c.key, !c.want, c.want)
		}
	}
	if len(isUnreached) != 3 {
		t.Errorf("unreached = %v, want exactly the three unreached cases", unreached)
	}

	got := m.neverSet([]string{"a.Conf"}, []string{"a.DefaultConf"}, nil)
	// Set is assigned and Alias keyed through the nvwa.Conf alias;
	// OnlyDefault is set only in the defaults function.
	want := []string{"never set: a.Conf.OnlyDefault takes its default everywhere; make it a constant"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("setter guard reports %q, want %q", got, want)
	}
}
