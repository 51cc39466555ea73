package nvwa_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow exempts exported names in internal/ that no non-test file
// reaches. Keys are "pkg.Name" for top-level names and "pkg.Type.Method"
// for methods. Every reason starts with one of four categories:
//
//	interface: the method satisfies an interface the caller reaches
//	           through the standard library or a type switch
//	facade:    the method is on a type nvwa.go re-exports
//	oracle:    tests or kernbench compare production against it
//	invariant: another package's tests check an invariant through it
//
// An entry whose name is now reached, or no longer exists, fails the
// guard, so the list cannot go stale.
var reachAllow = map[string]string{
	"coordinator.unitsByID.Less": "interface: sort.Interface, called by sort.Sort",
	"coordinator.unitsByID.Swap": "interface: sort.Interface, called by sort.Sort",
	"accel.System.Step":          "facade: nvwa.Accelerator re-exports accel.System",
	"fault.Plan.Normalize":       "facade: nvwa.FaultPlan re-exports fault.Plan",
	"accel.ApplySteals":          "oracle: replays a StealLog; tests and FuzzStealSchedule check PlanBalanced's partition against it",
	"align.ScoreCigar":           "oracle: recomputes a path's score; tests check Local and ExtendWithScratch CIGARs against it",
	"systolic.Array":             "oracle: the cycle-by-cycle wavefront; FuzzSystolicVsSoftwareDP checks Formula 3 (Latency) and align's DP against it",
	"core.HitArena.Live":         "invariant: accel's checkpoint tests assert a drained arena holds no live IDs",
	"obs.Invariants.Checks":      "invariant: accel and experiments tests assert the checker actually ran",
	"sim.BusyTracker.Busy":       "invariant: su's tests assert a unit's tracker follows its control state",
}

var reachCategories = []string{"interface:", "facade:", "oracle:", "invariant:"}

// reachRoots are the trees the guard parses: internal/ is checked, and
// every tree (internal/ included) can reach a name. perfbench is its own
// module but imports internal/, so its callers count.
var reachRoots = []string{"internal", "cmd", "examples", "perfbench", "nvwa.go"}

const reachModule = "nvwa"

type reachDecl struct {
	pos  token.Position
	key  string // pkg.Name or pkg.Type.Method
	pkg  string // import path of the declaring package
	name string
	recv string // receiver type name, "" for top-level names
}

type reachScan struct {
	fset  *token.FileSet
	decls []reachDecl
	// refs holds "importpath.Name" for every top-level name some
	// non-test file names outside its own declaration.
	refs map[string]bool
	// sels holds, per selected name, the methods the selections occur
	// in (keyed like reachDecl.key, "" outside methods).
	sels map[string]map[string]bool
}

// TestNoUnreachedExports fails on every exported func, type, var, const
// or method in internal/ that no non-test file reaches, unless
// reachAllow exempts it. See DESIGN.md, "Reachability guard".
func TestNoUnreachedExports(t *testing.T) {
	s, err := scanReach(".")
	if err != nil {
		t.Fatal(err)
	}
	unreached, stale := s.check(reachAllow)
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

// scanReach parses every non-test .go file under the reach roots of the
// module rooted at dir.
func scanReach(dir string) (*reachScan, error) {
	s := &reachScan{
		fset: token.NewFileSet(),
		refs: map[string]bool{},
		sels: map[string]map[string]bool{},
	}
	for _, root := range reachRoots {
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
			rel, err := filepath.Rel(dir, p)
			if err != nil {
				return err
			}
			return s.addFile(p, filepath.ToSlash(rel))
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *reachScan) addFile(p, rel string) error {
	f, err := parser.ParseFile(s.fset, p, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	pkg := reachModule
	if d := path.Dir(rel); d != "." {
		pkg = reachModule + "/" + d
	}
	imports := map[string]string{}
	for _, im := range f.Imports {
		ip := strings.Trim(im.Path.Value, `"`)
		local := path.Base(ip)
		if im.Name != nil {
			local = im.Name.Name
		}
		imports[local] = ip
	}
	checked := strings.HasPrefix(rel, "internal/")
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			owners := map[string]bool{}
			encl := ""
			if d.Recv != nil {
				recv := recvName(d.Recv.List[0].Type)
				owners[recv] = true
				encl = path.Base(pkg) + "." + recv + "." + d.Name.Name
				if checked && ast.IsExported(d.Name.Name) {
					s.declare(pkg, d.Name, recv)
				}
				s.walk(d.Recv, pkg, imports, owners, encl)
			} else {
				owners[d.Name.Name] = true
				if checked && ast.IsExported(d.Name.Name) {
					s.declare(pkg, d.Name, "")
				}
			}
			s.walk(d.Type, pkg, imports, owners, encl)
			if d.Body != nil {
				s.walk(d.Body, pkg, imports, owners, encl)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				owners := map[string]bool{}
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					owners[sp.Name.Name] = true
					if checked && ast.IsExported(sp.Name.Name) {
						s.declare(pkg, sp.Name, "")
					}
					if sp.TypeParams != nil {
						s.walk(sp.TypeParams, pkg, imports, owners, "")
					}
					s.walk(sp.Type, pkg, imports, owners, "")
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						owners[n.Name] = true
						if checked && ast.IsExported(n.Name) {
							s.declare(pkg, n, "")
						}
					}
					if sp.Type != nil {
						s.walk(sp.Type, pkg, imports, owners, "")
					}
					for _, v := range sp.Values {
						s.walk(v, pkg, imports, owners, "")
					}
				}
			}
		}
	}
	return nil
}

func (s *reachScan) declare(pkg string, id *ast.Ident, recv string) {
	key := path.Base(pkg) + "." + id.Name
	if recv != "" {
		key = path.Base(pkg) + "." + recv + "." + id.Name
	}
	s.decls = append(s.decls, reachDecl{pos: s.fset.Position(id.Pos()), key: key, pkg: pkg, name: id.Name, recv: recv})
}

// recvName strips pointers and type arguments from a receiver type.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// walk records the references under n. owners are the same-package
// names whose own declaration n belongs to; encl is the enclosing
// method's key.
func (s *reachScan) walk(n ast.Node, pkg string, imports map[string]string, owners map[string]bool, encl string) {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if ip, ok := imports[id.Name]; ok {
					s.refs[ip+"."+x.Sel.Name] = true
					return false
				}
			}
			m := s.sels[x.Sel.Name]
			if m == nil {
				m = map[string]bool{}
				s.sels[x.Sel.Name] = m
			}
			m[encl] = true
			ast.Inspect(x.X, visit)
			return false
		case *ast.Field:
			// Field, parameter and interface-method names declare, they
			// do not refer; only the type can name something.
			ast.Inspect(x.Type, visit)
			return false
		case *ast.Ident:
			if !owners[x.Name] {
				s.refs[pkg+"."+x.Name] = true
			}
		}
		return true
	}
	ast.Inspect(n, visit)
}

// check returns the unreached, non-exempt declarations as
// "file:line pkg.Name", and the allow-list keys that are stale.
func (s *reachScan) check(allow map[string]string) (unreached, stale []string) {
	exists := map[string]bool{}
	for _, d := range s.decls {
		exists[d.key] = true
		if s.reached(d) {
			if _, ok := allow[d.key]; ok {
				stale = append(stale, d.key+" (reached)")
			}
			continue
		}
		if _, ok := allow[d.key]; ok {
			continue
		}
		unreached = append(unreached, fmt.Sprintf("%s:%d %s", d.pos.Filename, d.pos.Line, d.key))
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

func (s *reachScan) reached(d reachDecl) bool {
	if d.recv == "" {
		return s.refs[d.pkg+"."+d.name]
	}
	for encl := range s.sels[d.name] {
		if encl != d.key {
			return true
		}
	}
	return false
}
