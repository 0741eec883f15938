package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestStructure holds the design's shape: the paper's Algorithms 1-3 stay
// one walker, one digest and one SCF loop behind named presets, and what
// earlier changes deleted stays deleted. Each row of structureGates is one
// question the syntax tree answers exactly, over the non-test Go files
// outside bench/ that its scope names. A row passes on the tree and fails
// on every one of its mutants: in-memory edits of the real source, each
// one a way the design has come back before or could. A mutant whose text
// is no longer in its file fails the test, so the mutants follow the code.
func TestStructure(t *testing.T) {
	tr := loadTree(t)
	for _, g := range structureGates {
		t.Run(g.name, func(t *testing.T) {
			if bad := g.check(tr.scope(g.scope)); len(bad) > 0 {
				t.Errorf("the gate set in PR %d fails:\n\t%s", g.pr, strings.Join(bad, "\n\t"))
			}
			if len(g.mutants) == 0 {
				t.Errorf("no mutant: nothing shows that the gate can fail")
			}
			for _, m := range g.mutants {
				mt, err := tr.with(m)
				if err != nil {
					t.Errorf("mutant %q: %v", m.name, err)
					continue
				}
				if len(g.check(mt.scope(g.scope))) == 0 {
					t.Errorf("mutant %q of %s passes the gate", m.name, m.file)
				}
			}
		})
	}
}

// gate is one structure rule.
type gate struct {
	name string
	pr   int // the change that set the rule
	// scope selects files by slash path from the module root: a directory
	// ("internal/fock", "." for the facade), one file, a subtree
	// ("internal/...") or "./..." for every file.
	scope   []string
	check   func(fs []*srcFile) []string // violations, each "file:line: what"
	mutants []mutant
}

// mutant is an edit that the gate must catch: old replaced once by new
// in file, or, with old empty, new appended to file.
type mutant struct {
	name, file string
	old, new   string
}

// srcFile is one parsed non-test Go file.
type srcFile struct {
	path string // slash path from the module root
	src  []byte
	fset *token.FileSet
	ast  *ast.File
}

// at returns the file:line of n.
func (f *srcFile) at(n ast.Node) string {
	return fmt.Sprintf("%s:%d", f.path, f.fset.Position(n.Pos()).Line)
}

// text returns the source of n.
func (f *srcFile) text(n ast.Node) string {
	return string(f.src[f.fset.Position(n.Pos()).Offset:f.fset.Position(n.End()).Offset])
}

type tree []*srcFile

// loadTree parses every non-test Go file of the module outside bench/,
// which is a module of its own.
func loadTree(t *testing.T) tree {
	var tr tree
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (p == "bench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parseFile(filepath.ToSlash(p), src)
		if err != nil {
			return err
		}
		tr = append(tr, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func parseFile(p string, src []byte) (*srcFile, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, p, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return &srcFile{path: p, src: src, fset: fset, ast: f}, nil
}

// scope returns the files sel selects.
func (tr tree) scope(sel []string) []*srcFile {
	var out []*srcFile
	for _, f := range tr {
		for _, s := range sel {
			if s == "./..." || strings.HasSuffix(s, "/...") && strings.HasPrefix(f.path, strings.TrimSuffix(s, "...")) ||
				f.path == s || path.Dir(f.path) == s {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// with returns the tree with m applied.
func (tr tree) with(m mutant) (tree, error) {
	i := slices.IndexFunc(tr, func(f *srcFile) bool { return f.path == m.file })
	if i < 0 {
		return nil, fmt.Errorf("no non-test file %s", m.file)
	}
	src := string(tr[i].src)
	switch {
	case m.old == "":
		src += "\n" + m.new + "\n"
	case strings.Contains(src, m.old):
		src = strings.Replace(src, m.old, m.new, 1)
	default:
		return nil, fmt.Errorf("%s no longer holds %q", m.file, m.old)
	}
	f, err := parseFile(m.file, []byte(src))
	if err != nil {
		return nil, fmt.Errorf("does not parse: %v", err)
	}
	out := slices.Clone(tr)
	out[i] = f
	return out, nil
}

// --- what the rules look at ---

// walk calls fn on every node of every file, with the top-level function
// declaration it is in (nil outside one).
func walk(fs []*srcFile, fn func(f *srcFile, in *ast.FuncDecl, n ast.Node)) {
	for _, f := range fs {
		for _, d := range f.ast.Decls {
			fd, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				if n != nil {
					fn(f, fd, n)
				}
				return true
			})
		}
	}
}

// callee returns the name a call calls: f of f(...) or x.f(...).
func callee(c *ast.CallExpr) string {
	switch fn := c.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// isSel reports whether e is x.sel with x the identifier (or the last
// selector of) x.
func isSel(e ast.Expr, x, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	switch v := s.X.(type) {
	case *ast.Ident:
		return v.Name == x
	case *ast.SelectorExpr:
		return v.Sel.Name == x
	}
	return false
}

// funcName names a function declaration as Recv.Name or Name.
func funcName(fd *ast.FuncDecl) string {
	if fd == nil {
		return "package level"
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func oneOf(names ...string) func(string) bool {
	return func(s string) bool { return slices.Contains(names, s) }
}

func containsAny(subs ...string) func(string) bool {
	return func(s string) bool {
		return slices.ContainsFunc(subs, func(sub string) bool { return strings.Contains(s, sub) })
	}
}

// word is an identifier-shaped word of a string literal.
var word = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// noNames fails on every name match accepts: an identifier (declared,
// used, field or selector) or a word of a string literal, where a removed
// name can come back as a struct tag, a config key or a metric name.
func noNames(why string, match func(string) bool) func([]*srcFile) []string {
	return func(fs []*srcFile) (bad []string) {
		walk(fs, func(f *srcFile, _ *ast.FuncDecl, n ast.Node) {
			var names []string
			switch v := n.(type) {
			case *ast.Ident:
				names = []string{v.Name}
			case *ast.BasicLit:
				if s, err := strconv.Unquote(v.Value); v.Kind == token.STRING && err == nil {
					names = word.FindAllString(s, -1)
				}
			}
			for _, name := range names {
				if match(name) {
					bad = append(bad, fmt.Sprintf("%s: %s: %s", f.at(n), name, why))
				}
			}
		})
		return bad
	}
}

// noCalls fails on every call match accepts.
func noCalls(why string, match func(f *srcFile, in *ast.FuncDecl, c *ast.CallExpr) bool) func([]*srcFile) []string {
	return func(fs []*srcFile) (bad []string) {
		walk(fs, func(f *srcFile, in *ast.FuncDecl, n ast.Node) {
			if c, ok := n.(*ast.CallExpr); ok && match(f, in, c) {
				bad = append(bad, fmt.Sprintf("%s: %s in %s: %s", f.at(c), f.text(c.Fun), funcName(in), why))
			}
		})
		return bad
	}
}

// callCount fails unless exactly want calls match accepts, listing them.
func callCount(want int, what string, match func(f *srcFile, in *ast.FuncDecl, c *ast.CallExpr) bool) func([]*srcFile) []string {
	return func(fs []*srcFile) []string {
		var sites []string
		walk(fs, func(f *srcFile, in *ast.FuncDecl, n ast.Node) {
			if c, ok := n.(*ast.CallExpr); ok && match(f, in, c) {
				sites = append(sites, fmt.Sprintf("%s (%s)", f.at(c), funcName(in)))
			}
		})
		if len(sites) == want {
			return nil
		}
		return []string{fmt.Sprintf("%d %s, want %d: %s", len(sites), what, want, strings.Join(sites, ", "))}
	}
}

// noFuncs fails on every function or method declaration match accepts.
func noFuncs(why string, match func(fd *ast.FuncDecl) bool) func([]*srcFile) []string {
	return func(fs []*srcFile) (bad []string) {
		for _, f := range fs {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && match(fd) {
					bad = append(bad, fmt.Sprintf("%s: func %s: %s", f.at(fd), funcName(fd), why))
				}
			}
		}
		return bad
	}
}

// noImports fails on every import of one of paths.
func noImports(why string, paths ...string) func([]*srcFile) []string {
	return func(fs []*srcFile) (bad []string) {
		for _, f := range fs {
			for _, im := range f.ast.Imports {
				if p, _ := strconv.Unquote(im.Path.Value); slices.Contains(paths, p) {
					bad = append(bad, fmt.Sprintf("%s: imports %s: %s", f.at(im), p, why))
				}
			}
		}
		return bad
	}
}

// all joins the violations of every check.
func all(checks ...func([]*srcFile) []string) func([]*srcFile) []string {
	return func(fs []*srcFile) (bad []string) {
		for _, c := range checks {
			bad = append(bad, c(fs)...)
		}
		return bad
	}
}

// plainFunc matches a function, not a method, named one of names.
func plainFunc(names ...string) func(fd *ast.FuncDecl) bool {
	return func(fd *ast.FuncDecl) bool { return fd.Recv == nil && slices.Contains(names, fd.Name.Name) }
}

// typeSpec returns the declaration of type name in fs.
func typeSpec(fs []*srcFile, name string) (*srcFile, *ast.TypeSpec) {
	for _, f := range fs {
		for _, d := range f.ast.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, s := range gd.Specs {
					if ts := s.(*ast.TypeSpec); ts.Name.Name == name {
						return f, ts
					}
				}
			}
		}
	}
	return nil, nil
}

// calls reports whether function fn (Recv.Name or Name; "" for any) in
// fs calls callee name.
func calls(fs []*srcFile, fn, name string) bool {
	found := false
	walk(fs, func(_ *srcFile, in *ast.FuncDecl, n ast.Node) {
		if c, ok := n.(*ast.CallExpr); ok && (fn == "" || in != nil && funcName(in) == fn) && callee(c) == name {
			found = true
		}
	})
	return found
}

// onSch reports whether c is a method call on a receiver whose text ends
// in sch (sch, w.sch, psch): the Schwarz bound's conventional name.
func onSch(f *srcFile, c *ast.CallExpr) bool {
	s, ok := c.Fun.(*ast.SelectorExpr)
	return ok && strings.HasSuffix(f.text(s.X), "sch")
}

// isFloat64Cube reports whether e is [][][]float64.
func isFloat64Cube(e ast.Expr) bool {
	for range 3 {
		a, ok := e.(*ast.ArrayType)
		if !ok || a.Len != nil {
			return false
		}
		e = a.Elt
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "float64"
}

// isNamedCall returns a call matcher on the callee's name.
func isNamedCall(names ...string) func(*srcFile, *ast.FuncDecl, *ast.CallExpr) bool {
	return func(_ *srcFile, _ *ast.FuncDecl, c *ast.CallExpr) bool { return slices.Contains(names, callee(c)) }
}

// isSelCall returns a call matcher on x.sel(...).
func isSelCall(x, sel string) func(*srcFile, *ast.FuncDecl, *ast.CallExpr) bool {
	return func(_ *srcFile, _ *ast.FuncDecl, c *ast.CallExpr) bool { return isSel(c.Fun, x, sel) }
}

// hasPlus reports whether any argument of c assembles a value with +.
func hasPlus(c *ast.CallExpr) bool {
	found := false
	for _, a := range c.Args {
		ast.Inspect(a, func(n ast.Node) bool {
			if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.ADD {
				found = true
			}
			return !found
		})
	}
	return found
}

// doubling matches the right-hand side of a `*= 2`: the literal 2, or an
// expression led by it (2.0, 2 * x).
var doubling = regexp.MustCompile(`^2\b`)

// windowName matches a Sprintf-built name of the old name-keyed windows.
var windowName = regexp.MustCompile(`^(ddi|dm|fock|purify|lease)\.`)

// addImport is the mutant that makes file import p.
func addImport(name, file, pkg, p string) mutant {
	return mutant{name: name, file: file, old: "package " + pkg + "\n", new: "package " + pkg + "\n\nimport _ \"" + p + "\"\n"}
}

// --- the rules ---

var structureGates = []gate{
	// The Fock layer: one walker, one digest (Algorithms 1-3).
	{
		name: "fock-one-quartet-call", pr: 14, scope: []string{"internal/fock"},
		check: callCount(1, ".ShellQuartet( call sites (the walker is the one)", func(_ *srcFile, _ *ast.FuncDecl, c *ast.CallExpr) bool {
			_, ok := c.Fun.(*ast.SelectorExpr)
			return ok && callee(c) == "ShellQuartet"
		}),
		mutants: []mutant{{name: "a second kernel call", file: "internal/fock/walker.go",
			new: "func (w *walker) quartetAgain(a, b, c, d int) []float64 { return w.src.ShellQuartet(a, b, c, d, nil) }"}},
	},
	{
		name: "fock-one-digest", pr: 33, scope: []string{"internal/fock"},
		check: func(fs []*srcFile) []string {
			var sites []string
			for _, f := range fs {
				for _, d := range f.ast.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && plainFunc("digest")(fd) {
						sites = append(sites, f.at(fd))
					}
				}
			}
			if len(sites) == 1 {
				return nil
			}
			return []string{fmt.Sprintf("%d func digest, want 1 (the block-wise digest): %s", len(sites), strings.Join(sites, ", "))}
		},
		mutants: []mutant{{name: "a second func digest", file: "internal/fock/common.go", new: "func digest() {}"}},
	},
	{
		name: "fock-sink-is-block-and-done", pr: 46, scope: []string{"internal/fock"},
		check: func(fs []*srcFile) []string {
			f, ts := typeSpec(fs, "sink")
			it, ok := (*ast.InterfaceType)(nil), false
			if ts != nil {
				it, ok = ts.Type.(*ast.InterfaceType)
			}
			if !ok {
				return []string{"internal/fock declares no sink interface"}
			}
			var methods []string
			for _, m := range it.Methods.List {
				for _, n := range m.Names {
					methods = append(methods, n.Name)
				}
				if len(m.Names) == 0 {
					methods = append(methods, f.text(m.Type))
				}
			}
			slices.Sort(methods)
			if slices.Equal(methods, []string{"block", "done"}) {
				return nil
			}
			return []string{fmt.Sprintf("%s: the sink interface has methods %v, want [block done]: a sink hands the digest whole blocks, no per-element method", f.at(ts), methods)}
		},
		mutants: []mutant{
			{name: "an extra per-element sink method", file: "internal/fock/digest.go",
				old: "\tblock(role, a, b int) []float64\n", new: "\tblock(role, a, b int) []float64\n\tat(role, x, y int) *float64\n"},
			{name: "the per-element add back on sink", file: "internal/fock/digest.go",
				old: "\tdone()\n}", new: "\tdone()\n\tadd(role, x, y int, v float64)\n}"},
		},
	},
	{
		name: "fock-no-per-element-add", pr: 33, scope: []string{"internal/fock"},
		check: func(fs []*srcFile) (bad []string) {
			for _, f := range fs {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					switch v := n.(type) {
					case *ast.InterfaceType:
						for _, m := range v.Methods.List {
							for _, id := range m.Names {
								if id.Name == "add" {
									bad = append(bad, f.at(id)+": an interface method add: the digest adds into the blocks its sink hands out")
								}
							}
						}
					case *ast.FuncDecl:
						if v.Recv != nil && v.Name.Name == "add" {
							bad = append(bad, f.at(v)+": method "+funcName(v)+": the digest adds into the blocks its sink hands out")
						}
					}
					return true
				})
			}
			return bad
		},
		mutants: []mutant{
			{name: "add(role, x, y int, v float64) on the sink", file: "internal/fock/digest.go",
				old: "\tdone()\n}", new: "\tdone()\n\tadd(role, x, y int, v float64)\n}"},
			{name: "a per-element add method", file: "internal/fock/digest.go",
				new: "func (s *blockSink) add(role, x, y int, v float64) { s.g[x*s.lay.n+y] += v }"},
		},
	},
	{
		name: "fock-no-canonicalising-scatter", pr: 46, scope: []string{"internal/fock"},
		check: noFuncs("accumulators are shell-blocked and close with F = G + Gᵀ", func(fd *ast.FuncDecl) bool {
			return fd.Name.Name == "addLower" || fd.Name.Name == "addLocal"
		}),
		mutants: []mutant{
			{name: "a re-added addLower", file: "internal/fock/digest.go", new: "func addLower(g []float64, n, x, y int, v float64) { g[max(x, y)*n+min(x, y)] += v }"},
			{name: "an addLocal method", file: "internal/fock/digest.go", new: "func (s *blockSink) addLocal(x, y int, v float64) { s.g[x] += v }"},
		},
	},
	{
		name: "fock-digest-doubles-no-diagonal", pr: 46, scope: []string{"internal/fock/digest.go"},
		check: func(fs []*srcFile) (bad []string) {
			walk(fs, func(f *srcFile, in *ast.FuncDecl, n ast.Node) {
				a, ok := n.(*ast.AssignStmt)
				if !ok || a.Tok != token.MUL_ASSIGN {
					return
				}
				if doubling.MatchString(f.text(a.Rhs[0])) {
					bad = append(bad, fmt.Sprintf("%s: %s in %s doubles a diagonal; finalize's F = G + Gᵀ doubles it once per build", f.at(a), f.text(a), funcName(in)))
				}
			})
			return bad
		},
		mutants: []mutant{
			{name: "a *= 2 diagonal doubling in digest.go", file: "internal/fock/digest.go",
				new: "func doubleDiagonal(blk []float64, n int) {\n\tfor i := 0; i < n; i++ {\n\t\tblk[i*n+i] *= 2\n\t}\n}"},
			{name: "a *= 2 * s scaled doubling in digest.go", file: "internal/fock/digest.go",
				new: "func scaleDiagonal(blk []float64, n int, s float64) {\n\tfor i := 0; i < n; i++ {\n\t\tblk[i*n+i] *= 2 * s\n\t}\n}"},
		},
	},
	{
		name: "fock-one-screening-function", pr: 14, scope: []string{"internal/fock"},
		check: func(fs []*srcFile) []string {
			var fns []string
			walk(fs, func(f *srcFile, in *ast.FuncDecl, n ast.Node) {
				if c, ok := n.(*ast.CallExpr); ok && (callee(c) == "Screened" || callee(c) == "Bound") && onSch(f, c) {
					if fn := f.path + ": " + funcName(in); !slices.Contains(fns, fn) {
						fns = append(fns, fn)
					}
				}
			})
			if len(fns) == 1 {
				return nil
			}
			return []string{fmt.Sprintf("Schwarz screening (sch.Screened/sch.Bound) must live in exactly one function, found %d: %s", len(fns), strings.Join(fns, "; "))}
		},
		mutants: []mutant{
			{name: "a second screening function", file: "internal/fock/common.go",
				new: "func screenAgain(sch *integrals.Schwarz, i, j int) float64 { return sch.Bound(i, j, i, j) }"},
			{name: "a second screening function on another handle", file: "internal/fock/common.go",
				new: "func screenPair(psch *integrals.Schwarz, i, j int) bool { return psch.Screened(i, j, i, j, 0) }"},
		},
	},
	{
		name: "fock-no-hand-synced-copy", pr: 14, scope: []string{"internal/fock"},
		check: func(fs []*srcFile) (bad []string) {
			for _, f := range fs {
				for _, cg := range f.ast.Comments {
					if strings.Contains(cg.Text(), "KEEP IN SYNC") {
						bad = append(bad, f.at(cg)+": KEEP IN SYNC: a hand-synced copy is back in internal/fock")
					}
				}
			}
			return bad
		},
		mutants: []mutant{{name: "a KEEP IN SYNC copy", file: "internal/fock/walker.go",
			new: "// quartetCopy is walker.quartet for the tiled step. KEEP IN SYNC.\nfunc quartetCopy() {}"}},
	},
	{
		name: "fock-no-sync-pool", pr: 48, scope: []string{"internal/fock"},
		check: func(fs []*srcFile) (bad []string) {
			walk(fs, func(f *srcFile, _ *ast.FuncDecl, n ast.Node) {
				if e, ok := n.(ast.Expr); ok && isSel(e, "sync", "Pool") {
					bad = append(bad, f.at(n)+": sync.Pool: a builder owns its walkers, accumulators and staging for its world attempt")
				}
			})
			return bad
		},
		mutants: []mutant{{name: "a re-added stagingPool", file: "internal/fock/resilient.go",
			old: "\t\"repro/internal/mpi\"\n)\n",
			new: "\t\"repro/internal/mpi\"\n\t\"sync\"\n)\n\nvar stagingPool = sync.Pool{New: func() any { return new([]float64) }}\n"}},
	},
	{
		name: "fock-six-preset-constructors", pr: 48, scope: []string{"internal/fock"},
		check: func(fs []*srcFile) []string {
			preset := regexp.MustCompile(`^[A-Z][A-Za-z]*BuildN?$`)
			var bad, found []string
			for _, f := range fs {
				for _, d := range f.ast.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Recv != nil || !preset.MatchString(fd.Name.Name) {
						continue
					}
					found = append(found, fd.Name.Name)
					res := fd.Type.Results
					if res == nil || len(res.List) != 1 || len(res.List[0].Names) > 1 || f.text(res.List[0].Type) != "*Builder" {
						bad = append(bad, f.at(fd)+": "+fd.Name.Name+" does not return one *Builder: a preset is a constructor")
					}
				}
			}
			if len(found) != 6 {
				bad = append(bad, fmt.Sprintf("%d exported *Build/*BuildN functions %v, want the six preset constructors", len(found), found))
			}
			return bad
		},
		mutants: []mutant{
			{name: "an old-signature func MPIOnlyBuild(", file: "internal/fock/mpionly.go",
				old: "func MPIOnlyBuild(dx *ddi.Context, eng *integrals.Engine,\n\tsch *integrals.Schwarz, cfg Config) *Builder {",
				new: "func MPIOnlyBuild(dx *ddi.Context, eng *integrals.Engine,\n\tsch *integrals.Schwarz, chans []Channel, cfg Config) ([]*linalg.Matrix, Stats) {\n\treturn mpiOnly(dx, eng, sch, cfg).Build(chans)\n}\n\nfunc mpiOnly(dx *ddi.Context, eng *integrals.Engine,\n\tsch *integrals.Schwarz, cfg Config) *Builder {"},
			{name: "a per-build preset beside the six", file: "internal/fock/mpionly.go",
				new: "func ReplicatedBuild(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz, chans []Channel, cfg Config) ([]*linalg.Matrix, Stats) {\n\treturn MPIOnlyBuild(dx, eng, sch, cfg).Build(chans)\n}"},
		},
	},

	// The integrals layer: one production kernel, flat and allocation-free.
	{
		name: "integrals-one-kernel", pr: 31, scope: []string{"internal/integrals"},
		check: func(fs []*srcFile) []string {
			var kernels []string
			for _, f := range fs {
				for _, d := range f.ast.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "ShellQuartet" {
						kernels = append(kernels, f.at(fd)+" ("+f.text(fd.Recv.List[0].Type)+")")
					}
				}
			}
			if len(kernels) == 1 && strings.HasSuffix(kernels[0], " (*PairCache)") {
				return nil
			}
			return []string{fmt.Sprintf("ShellQuartet methods %v, want exactly (*PairCache)'s (the oracle lives in internal/integrals/oracle)", kernels)}
		},
		mutants: []mutant{{name: "the direct oracle back in production", file: "internal/integrals/oneelec.go",
			new: "func (e *Engine) ShellQuartet(a, b, c, d int) []float64 { return nil }"}},
	},
	{
		name: "integrals-kernel-tables-flat", pr: 47, scope: []string{"internal/integrals/paircache.go", "internal/integrals/hermite.go", "internal/integrals/schwarz.go"},
		check: func(fs []*srcFile) (bad []string) {
			walk(fs, func(f *srcFile, in *ast.FuncDecl, n ast.Node) {
				switch v := n.(type) {
				case *ast.CallExpr:
					if isSel(v.Fun, "math", "Pow") {
						bad = append(bad, f.at(v)+": math.Pow in "+funcName(in)+": the kernel, its E tables and the Schwarz pass use no math.Pow")
					}
				case *ast.ArrayType:
					if isFloat64Cube(v) {
						bad = append(bad, f.at(v)+": [][][]float64 in "+funcName(in)+": the kernel, its E tables and the Schwarz pass keep flat tables")
					}
				}
			})
			return bad
		},
		mutants: []mutant{
			{name: "a math.Pow in hermite.go", file: "internal/integrals/hermite.go",
				new: "func powE(x float64, n int) float64 { return math.Pow(x, float64(n)) }"},
			{name: "a nested E table in paircache.go", file: "internal/integrals/paircache.go",
				new: "func nestedE(n int) [][][]float64 { return make([][][]float64, n) }"},
		},
	},
	{
		name: "integrals-no-scalar-hermiteR", pr: 47, scope: []string{"internal/integrals"},
		check:   noFuncs("V runs the kernel's R recursion (the oracle keeps its own)", plainFunc("hermiteR")),
		mutants: []mutant{{name: "a re-added func hermiteR", file: "internal/integrals/hermite.go", new: "func hermiteR(n int, t float64) []float64 { return make([]float64, n+1) }"}},
	},
	{
		name: "integrals-one-lanes-call", pr: 35, scope: []string{"internal/integrals/paircache.go"},
		check: func(fs []*srcFile) (bad []string) {
			called := map[ast.Expr]bool{}
			walk(fs, func(f *srcFile, in *ast.FuncDecl, n ast.Node) {
				if c, ok := n.(*ast.CallExpr); ok && isSel(c.Fun, "lanes", "quartet") {
					called[c.Fun] = true
				}
				if s, ok := n.(*ast.SelectorExpr); ok && !called[s] && isSel(s, "lanes", s.Sel.Name) {
					bad = append(bad, f.at(s)+": "+f.text(s)+" in "+funcName(in)+": paircache.go runs a quartet's primitive loops through one lanes.quartet call")
				}
			})
			return bad
		},
		mutants: []mutant{{name: "a second lane body call", file: "internal/integrals/paircache.go",
			new: "func setupAgain(fn []float64, l int, p float64, c *[3]float64, kb *primBatch, d *[4][4]float64, pref *[4]float64, table []float64) {\n\tlanes.setup(fn, l, p, c, kb, d, pref, table)\n}"}},
	},

	// The team runtime.
	{
		name: "omp-one-cond", pr: 21, scope: []string{"internal/omp"},
		check: callCount(1, "sync.NewCond( in internal/omp (the barrier's park fallback)", isSelCall("sync", "NewCond")),
		mutants: []mutant{{name: "a second condition variable", file: "internal/omp/omp.go",
			new: "var regionDone = sync.NewCond(new(sync.Mutex))"}},
	},
	{
		name: "fock-one-barrier-per-fetch", pr: 21, scope: []string{"internal/fock/walker.go"},
		check: callCount(1, "tc.Barrier() calls in walker.teamFetch", func(_ *srcFile, in *ast.FuncDecl, c *ast.CallExpr) bool {
			return in != nil && funcName(in) == "walker.teamFetch" && isSel(c.Fun, "tc", "Barrier")
		}),
		mutants: []mutant{{name: "a second barrier in teamFetch", file: "internal/fock/walker.go",
			old: "\ttc.Barrier()\n", new: "\ttc.Barrier()\n\ttc.Barrier()\n"}},
	},

	// The SCF layer: one loop, one world launch, one S/H/X, one entry point.
	{
		name: "scf-one-iteration-loop", pr: 16, scope: []string{"internal/scf"},
		check: func(fs []*srcFile) []string {
			var loops []string
			walk(fs, func(f *srcFile, in *ast.FuncDecl, n ast.Node) {
				var lhs []ast.Expr
				switch v := n.(type) {
				case *ast.ForStmt:
					if a, ok := v.Init.(*ast.AssignStmt); ok && a.Tok == token.DEFINE {
						lhs = a.Lhs
					}
				case *ast.RangeStmt:
					if v.Tok == token.DEFINE {
						lhs = []ast.Expr{v.Key}
					}
				}
				if len(lhs) > 0 {
					if id, ok := lhs[0].(*ast.Ident); ok && id.Name == "iter" {
						loops = append(loops, f.at(n)+" ("+funcName(in)+")")
					}
				}
			})
			if len(loops) == 1 {
				return nil
			}
			return []string{fmt.Sprintf("%d `for iter :=` loops, want 1 (iterate): %s", len(loops), strings.Join(loops, ", "))}
		},
		mutants: []mutant{{name: "a second SCF loop", file: "internal/scf/dense.go",
			new: "func iterateAgain(opt Options) {\n\tfor iter := 1; iter <= opt.MaxIter; iter++ {\n\t}\n}"}},
	},
	{
		name: "scf-one-world-launch", pr: 16, scope: []string{"internal/scf", "."},
		check: callCount(1, "mpi.RunWithOptions( sites in internal/scf and the facade (supervise launches every world)", isSelCall("mpi", "RunWithOptions")),
		mutants: []mutant{{name: "the facade launching its own world", file: "api.go",
			new: "func runWorld(ranks int) error {\n\t_, err := mpi.RunWithOptions(ranks, mpi.RunOptions{}, func(*mpi.Comm) {})\n\treturn err\n}"}},
	},
	{
		name: "scf-one-electron-once", pr: 43, scope: []string{"internal/scf"},
		check: func(fs []*srcFile) []string {
			var in, out []string
			walk(fs, func(f *srcFile, fd *ast.FuncDecl, n ast.Node) {
				c, ok := n.(*ast.CallExpr)
				if !ok || f.path == "internal/scf/properties.go" || len(c.Args) > 0 {
					return
				}
				if _, isSel := c.Fun.(*ast.SelectorExpr); !isSel || callee(c) != "Overlap" && callee(c) != "CoreHamiltonian" {
					return
				}
				if fd != nil && funcName(fd) == "newOneElectron" {
					in = append(in, callee(c))
				} else {
					out = append(out, fmt.Sprintf("%s: %s in %s", f.at(c), f.text(c), funcName(fd)))
				}
			})
			slices.Sort(in)
			if slices.Equal(in, []string{"CoreHamiltonian", "Overlap"}) && len(out) == 0 {
				return nil
			}
			return []string{fmt.Sprintf("eng.Overlap() and eng.CoreHamiltonian() are called once each, in newOneElectron only (one S/H/X per run); found %v there and %v elsewhere", in, out)}
		},
		mutants: []mutant{{name: "the dense step evaluating S again", file: "internal/scf/dense.go",
			new: "func overlapAgain(eng *integrals.Engine) *linalg.Matrix { return eng.Overlap() }"}},
	},
	{
		name: "facade-two-basis-builds", pr: 16, scope: []string{"api.go", "properties.go"},
		check: callCount(2, "basis.Build( sites in api.go/properties.go (engineFor, DescribeBasis)", isSelCall("basis", "Build")),
		mutants: []mutant{{name: "a third basis build", file: "api.go",
			new: "func basisAgain(mol *molecule.Molecule, name string) (*basis.Basis, error) { return basis.Build(mol, name) }"}},
	},
	{
		name: "facade-one-entry-point", pr: 16, scope: []string{"."},
		check: noFuncs("repro.Run takes the context; no Run*Ctx twin", func(fd *ast.FuncDecl) bool {
			return fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Run") && strings.Contains(fd.Name.Name, "Ctx")
		}),
		mutants: []mutant{{name: "a RunCtx twin", file: "api.go",
			new: "func RunPlanCtx(ctx context.Context, mol *molecule.Molecule, basisName string, plan Plan) (*Result, error) {\n\treturn Run(ctx, mol, basisName, plan)\n}"}},
	},

	// Nothing unreached stays.
	{
		name: "linalg-one-eigensolver", pr: 22, scope: []string{"internal/linalg"},
		check:   noImports("one eigensolver (tred2/tqli), no team runtime", "repro/internal/omp"),
		mutants: []mutant{{name: "linalg importing omp", file: "internal/linalg/gemm.go", old: "import \"fmt\"\n", new: "import (\n\t\"fmt\"\n\n\t_ \"repro/internal/omp\"\n)\n"}},
	},
	{
		name: "mpi-one-world", pr: 22, scope: []string{"internal/mpi"},
		check: all(
			noNames("internal/mpi has one world; sub-communicators are gone", containsAny("subWorlds")),
			func(fs []*srcFile) (bad []string) {
				walk(fs, func(f *srcFile, in *ast.FuncDecl, n ast.Node) {
					if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == "root" {
						bad = append(bad, f.at(s)+": "+f.text(s)+" in "+funcName(in)+": internal/mpi has one world; sub-communicators are gone")
					}
				})
				return bad
			}),
		mutants: []mutant{
			{name: "a root hop", file: "internal/mpi/comm.go", new: "type subComm struct{ root *World }\n\nfunc (s subComm) world() *World { return s.root }"},
			{name: "sub-worlds", file: "internal/mpi/comm.go", new: "var subWorlds []*World"},
		},
	},
	{
		name: "fock-walker-no-extension-branch", pr: 22, scope: []string{"internal/fock/walker.go"},
		check:   noNames("walker.quartet is bound -> count -> ShellQuartet -> digest, with no extension branch", containsAny("dmax", "keep")),
		mutants: []mutant{{name: "a keep hook", file: "internal/fock/walker.go", new: "func (w *walker) keepQuartet(a, b, c, d int) bool { return false }"}},
	},
	{
		name: "service-no-experiment-harness", pr: 17, scope: []string{"internal/service"},
		check: all(
			noImports("an experiment harness belongs in cmd/scaling", "math/rand", "math/rand/v2"),
			noFuncs("an experiment harness belongs in cmd/scaling", func(fd *ast.FuncDecl) bool {
				return fd.Recv == nil && len(fd.Name.Name) > 3 && strings.HasPrefix(fd.Name.Name, "Run") && fd.Name.Name[3] >= 'A' && fd.Name.Name[3] <= 'Z'
			})),
		mutants: []mutant{
			addImport("math/rand in service", "internal/service/ring.go", "service", "math/rand"),
			{name: "a load generator in service", file: "internal/service/server.go", new: "func RunLoadgen(jobs int) int { return jobs }"},
		},
	},
	{
		name: "service-not-a-rank-pool", pr: 30, scope: []string{"internal/service"},
		check:   noImports("the worker pool does not ride the rank join protocol", "repro/internal/mpi"),
		mutants: []mutant{addImport("service importing mpi", "internal/service/autoscaler.go", "service", "repro/internal/mpi")},
	},

	// Every option earns its place (DESIGN.md §6; TestOptionBudget).
	{
		name: "options-made-constant-stay-gone", pr: 24, scope: []string{"./..."},
		check: noNames("an option made a constant (or derived) is back; see TestOptionBudget for the rule", func(s string) bool {
			return containsAny("LeaseTTL", "HedgeMinSamples", "WatchTick", "MaxRetryAfter", "WALKeepDone", "HighDepthPerWorker",
				"SharedThreadContentionLog", "SCFModel", "MigrateMinSamples", "CostModel", "NodeMTBFHours", "DownAfterTicks")(s) ||
				strings.HasSuffix(s, "WALSegment") || s == "Interval"
		}),
		mutants: []mutant{
			{name: "a LeaseTTL field on fock.Config", file: "internal/fock/common.go",
				old: "\tQuartets integrals.QuartetSource\n}", new: "\tQuartets integrals.QuartetSource\n\tLeaseTTL int64\n}"},
			{name: "the autoscaler's Interval", file: "internal/service/autoscaler.go",
				old: "\tMax int // pool ceiling; default 8\n", new: "\tMax int // pool ceiling; default 8\n\tInterval int64\n"},
			{name: "the autoscaler's DownAfterTicks", file: "internal/service/autoscaler.go",
				old: "\tMax int // pool ceiling; default 8\n", new: "\tMax int // pool ceiling; default 8\n\tDownAfterTicks int\n"},
			{name: "a LeaseTTL config key in a struct tag", file: "internal/service/autoscaler.go",
				new: "type leaseJSON struct {\n\tTTL int64 `json:\"LeaseTTL\"`\n}"},
		},
	},
	{
		name: "join-bus-stays-deleted", pr: 30, scope: []string{"./..."},
		check:   noNames("the in-process join bus is back; Membership.Announce appends under its lock", containsAny("JoinBus", "JoinFrame", "JoinBackoff", "corruptNext", "AttachMembership")),
		mutants: []mutant{{name: "a re-added JoinBus", file: "internal/mpi/membership.go", new: "type JoinBus struct{ frames [][]float64 }"}},
	},
	{
		name: "one-lease-drain", pr: 34, scope: []string{"./..."},
		check: noCalls("a lease consumer draws or re-issues tasks itself; ddi.LeaseDLB.Drain is the one drain loop", func(f *srcFile, _ *ast.FuncDecl, c *ast.CallExpr) bool {
			if path.Dir(f.path) == "internal/ddi" {
				return false
			}
			_, sel := c.Fun.(*ast.SelectorExpr)
			switch callee(c) {
			case "Steal":
				return sel && len(c.Args) == 0
			case "Hedge", "Expired", "DrawChunk":
				return sel
			}
			return false
		}),
		mutants: []mutant{{name: "the resilient build stealing itself", file: "internal/fock/resilient.go",
			new: "func stealAgain(l *ddi.LeaseDLB) (int, bool) { return l.Steal() }"}},
	},
	{
		name: "simulate-returns-rows", pr: 24, scope: []string{"internal/simulate"},
		check: noFuncs("internal/simulate returns rows; cmd/scaling renders each artifact's one table", func(fd *ast.FuncDecl) bool {
			return fd.Recv == nil && (strings.HasPrefix(fd.Name.Name, "Format") || strings.HasPrefix(fd.Name.Name, "CSV"))
		}),
		mutants: []mutant{
			{name: "a formatter in simulate", file: "internal/simulate/sim.go", new: "func FormatTable2() string { return \"\" }"},
			{name: "a CSV writer in simulate", file: "internal/simulate/sim.go", new: "func CSVTable3() [][]string { return nil }"},
		},
	},

	// One matrix product; the density step squares symmetric X.
	{
		name: "one-matrix-product", pr: 36, scope: []string{"./..."},
		check: func(fs []*srcFile) []string {
			var sites []string
			walk(fs, func(f *srcFile, in *ast.FuncDecl, n ast.Node) {
				a, ok := n.(*ast.AssignStmt)
				if !ok || a.Tok != token.ADD_ASSIGN || f.text(a.Lhs[0]) != "crow[j]" {
					return
				}
				uses := false
				ast.Inspect(a.Rhs[0], func(n ast.Node) bool {
					if ix, ok := n.(*ast.IndexExpr); ok && f.text(ix) == "brow[j]" {
						uses = true
					}
					return !uses
				})
				if uses {
					sites = append(sites, f.at(a)+" ("+funcName(in)+")")
				}
			})
			if len(sites) == 1 && strings.HasPrefix(sites[0], "internal/linalg/gemm.go:") {
				return nil
			}
			return []string{fmt.Sprintf("the scalar update crow[j] += ... brow[j] at %v; it lives in linalg.mulAddGo only, every other product calls linalg.MulAdd", sites)}
		},
		mutants: []mutant{{name: "a second scalar product loop", file: "internal/distmat/ops.go",
			new: "func rowMulAdd(crow, brow []float64, a float64) {\n\tfor j := range crow {\n\t\tcrow[j] += a * brow[j]\n\t}\n}"}},
	},
	{
		name: "distmat-ops-read-through-readTile", pr: 37, scope: []string{"internal/distmat/ops.go", "internal/distmat/purify.go"},
		check: noCalls("a distmat op copies tiles with GetTile; read through readTile", isNamedCall("GetTile")),
		mutants: []mutant{{name: "an op copying a tile", file: "internal/distmat/ops.go",
			new: "func firstTile(m *BlockMat, out []float64) { m.GetTile(0, 0, out) }"}},
	},
	{
		name: "distmat-sp2-squares", pr: 37, scope: []string{"internal/distmat/purify.go"},
		check: noCalls("SP2 squares symmetric X with Square, not MatMul", isNamedCall("MatMul")),
		mutants: []mutant{{name: "SP2 multiplying with MatMul", file: "internal/distmat/purify.go",
			new: "func squareByMatMul(c, x *BlockMat) { MatMul(c, x, x) }"}},
	},
	{
		name: "distmat-linear-ops-carry-parity", pr: 45, scope: []string{"internal/distmat/ops.go"},
		check: noCalls("a linear op carries parity linearly (linearOp), not through PutTile's read-old deltas", func(_ *srcFile, in *ast.FuncDecl, c *ast.CallExpr) bool {
			return in != nil && plainFunc("Copy", "Scale", "Axpby", "LinearCombine", "AddScaledIdentity")(in) && callee(c) == "PutTile"
		}),
		mutants: []mutant{{name: "PutTile in AddScaledIdentity", file: "internal/distmat/ops.go",
			old: "func AddScaledIdentity(m *BlockMat, s float64) {\n\tm.Dx.Comm.Barrier()\n",
			new: "func AddScaledIdentity(m *BlockMat, s float64) {\n\tm.Dx.Comm.Barrier()\n\tm.PutTile(0, 0, m.ownedTile(0, 0))\n"}},
	},
	{
		name: "distmat-one-parity-group-table", pr: 38, scope: []string{"internal/distmat"},
		check: noNames("a row/column twin of the ABFT parity code; work over the one group table",
			oneOf("rowGroupSum", "colGroupSum", "rowParityTile", "colParityTile", "fromRowGroup", "fromColGroup", "rowOwner", "colOwner")),
		mutants: []mutant{{name: "a row twin", file: "internal/distmat/abft.go", new: "func (m *BlockMat) rowGroupSum(bi int) []float64 { return nil }"}},
	},
	{
		name: "distmat-parity-placed-by-parityPlan", pr: 38, scope: []string{"internal/distmat"},
		check: func(fs []*srcFile) (bad []string) {
			for _, rule := range []string{"rowParityOwner", "colParityOwner"} {
				planned := 0
				walk(fs, func(f *srcFile, in *ast.FuncDecl, n ast.Node) {
					if c, ok := n.(*ast.CallExpr); ok && callee(c) == rule {
						if in != nil && funcName(in) == "parityPlan" {
							planned++
						} else {
							bad = append(bad, fmt.Sprintf("%s: %s called in %s; place parity groups through parityPlan only", f.at(c), rule, funcName(in)))
						}
					}
				})
				if planned == 0 {
					bad = append(bad, rule+" is not called in parityPlan")
				}
			}
			return bad
		},
		mutants: []mutant{{name: "a parity owner placed outside parityPlan", file: "internal/distmat/abft.go",
			new: "func firstRowParity(g *Grid) int { return rowParityOwner(g, 0, 0) }"}},
	},
	{
		name: "mpi-windows-are-handles", pr: 40, scope: []string{"./..."},
		check: all(
			noNames("a name-keyed window is back; create windows with Comm.WinCreate and keep the *mpi.Win",
				oneOf("WinCreateCounters", "CounterLoad", "CounterStore", "CounterCAS", "WinPut", "WinGet", "WinAcc", "WinShared", "getWindow", "SetMembershipEpoch", "NewShrunk", "matSeq")),
			noFuncs("a Comm method taking a window name", func(fd *ast.FuncDecl) bool {
				ps := fd.Type.Params.List
				return strings.HasPrefix(funcName(fd), "Comm.") && ast.IsExported(fd.Name.Name) && len(ps) > 0 && len(ps[0].Names) > 0 &&
					ps[0].Names[0].Name == "name" && fmt.Sprint(ps[0].Type) == "string"
			}),
			noCalls("a name-keyed window: FetchAdd takes a slot and a delta", func(_ *srcFile, _ *ast.FuncDecl, c *ast.CallExpr) bool {
				_, sel := c.Fun.(*ast.SelectorExpr)
				return sel && callee(c) == "FetchAdd" && len(c.Args) >= 3
			}),
			noCalls("a window name built by Sprintf", func(_ *srcFile, _ *ast.FuncDecl, c *ast.CallExpr) bool {
				if callee(c) != "Sprintf" || len(c.Args) == 0 {
					return false
				}
				lit, ok := c.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return false
				}
				s, _ := strconv.Unquote(lit.Value)
				return windowName.MatchString(s)
			})),
		mutants: []mutant{
			{name: "WinCreateCounters by name", file: "internal/mpi/window.go",
				new: "func (c *Comm) WinCreateCounters(name string, n int) *Win { return c.WinCreate(0, n) }"},
			{name: "a Comm method taking name string", file: "internal/mpi/window.go",
				new: "func (c *Comm) Window(name string) *Win { return nil }"},
			{name: "a three-argument FetchAdd", file: "internal/ddi/ddi.go",
				old: "d.dlb.FetchAdd(int(d.epoch%dlbSlots), 1)", new: "d.dlb.FetchAdd(\"ddi.dlb\", int(d.epoch%dlbSlots), 1)"},
			{name: "a Sprintf window name", file: "internal/distmat/purify.go",
				new: "func windowName(seq int) string { return fmt.Sprintf(\"dm.%d\", seq) }"},
			{name: "getWindow", file: "internal/mpi/window.go",
				new: "func (w *World) getWindow(k int) *window { return w.wins[k] }"},
		},
	},
	{
		name: "linalg-one-packed-helper", pr: 38, scope: []string{"internal/linalg"},
		check: func(fs []*srcFile) []string {
			if f, ts := typeSpec(fs, "Packed"); ts != nil {
				return []string{f.at(ts) + ": type Packed: PackedIndex is the one packed-order helper"}
			}
			return nil
		},
		mutants: []mutant{{name: "a re-added Packed", file: "internal/linalg/packed.go", new: "type Packed struct {\n\tN    int\n\tData []float64\n}"}},
	},

	// One event ring, one span primitive, one record per Fock build.
	{
		name: "telemetry-no-second-event-store", pr: 41, scope: []string{"internal/telemetry"},
		check: all(
			noNames("Logf and flight dumps use the one trace ring", oneOf("FlightRecorder", "FlightEntry")),
			noCalls("Logf and flight dumps use the one trace ring", func(_ *srcFile, _ *ast.FuncDecl, c *ast.CallExpr) bool {
				_, sel := c.Fun.(*ast.SelectorExpr)
				return sel && callee(c) == "Note"
			})),
		mutants: []mutant{
			{name: "a FlightEntry type", file: "internal/telemetry/flight.go", new: "type FlightEntry struct {\n\tMsg string\n}"},
			{name: "a .Note( call", file: "internal/telemetry/telemetry.go", new: "func (s *Session) note(msg string) { s.Recorder.Note(msg) }"},
		},
	},
	{
		name: "telemetry-session-one-recorder", pr: 41, scope: []string{"internal/telemetry"},
		check: func(fs []*srcFile) []string {
			f, ts := typeSpec(fs, "Session")
			st, ok := (*ast.StructType)(nil), false
			if ts != nil {
				st, ok = ts.Type.(*ast.StructType)
			}
			if !ok {
				return []string{"internal/telemetry declares no Session struct"}
			}
			store := regexp.MustCompile(`(?i)recorder|flight|\bring\b|event`)
			var stores []string
			for _, fl := range st.Fields.List {
				typ := f.text(fl.Type)
				if len(fl.Names) == 0 && store.MatchString(typ) {
					stores = append(stores, typ)
				}
				for _, n := range fl.Names {
					if s := n.Name + " " + typ; store.MatchString(s) {
						stores = append(stores, s)
					}
				}
			}
			if slices.Equal(stores, []string{"Recorder *Recorder"}) {
				return nil
			}
			return []string{fmt.Sprintf("%s: Session holds the event stores %q, want exactly one Recorder *Recorder", f.at(ts), stores)}
		},
		mutants: []mutant{
			{name: "a []Event field", file: "internal/telemetry/telemetry.go", old: "\tRecorder *Recorder //", new: "\tEvents   []Event\n\tRecorder *Recorder //"},
			{name: "a second *Recorder", file: "internal/telemetry/telemetry.go", old: "\tRecorder *Recorder //", new: "\tFlight   *Recorder\n\tRecorder *Recorder //"},
			{name: "a *Ring field", file: "internal/telemetry/telemetry.go", old: "\tRecorder *Recorder //", new: "\tring     *Ring\n\tRecorder *Recorder //"},
		},
	},
	{
		name: "telemetry-one-span-primitive", pr: 44, scope: []string{"./..."},
		check: noNames("open spans with Session.Start and close them with Span.End; the trace ID is the event's own field",
			oneOf("SpanArgsAtEnd", "TimedOp", "TimedOpInto", "traceArgs", "TraceArgKey")),
		mutants: []mutant{{name: "a re-added TimedOp", file: "internal/telemetry/telemetry.go",
			new: "func (s *Session) TimedOp(name string, f func()) {\n\tsp := s.Start(\"op\", name, 0, 0, nil)\n\tf()\n\tsp.End(nil)\n}"}},
	},
	{
		name: "metric-handles-resolved-once", pr: 44, scope: []string{"internal/mpi", "internal/ddi"},
		check: noCalls("a metric name assembled per op; resolve the handle once per world or context", func(_ *srcFile, _ *ast.FuncDecl, c *ast.CallExpr) bool {
			_, sel := c.Fun.(*ast.SelectorExpr)
			return sel && slices.Contains([]string{"Counter", "Gauge", "Histogram"}, callee(c)) && hasPlus(c)
		}),
		mutants: []mutant{{name: `"sdc.injected." + string(site) passed to Counter(`, file: "internal/mpi/fault.go",
			new: "func (w *World) injectedCounter(site FaultSite) *telemetry.Counter {\n\treturn w.telemetry.Counter(\"sdc.injected.\" + string(site))\n}"}},
	},
	{
		name: "one-load-record-per-build", pr: 42, scope: []string{"./..."},
		check:   noNames("a second per-build load store; the fock.build span is the one record and Summary reduces the ring", oneOf("LoadCollector", "RecordLoad", "Loads")),
		mutants: []mutant{{name: "a re-added LoadCollector", file: "internal/telemetry/imbalance.go", new: "type LoadCollector struct {\n\tloads []float64\n}"}},
	},
	{
		name: "fock-build-span-opened-once", pr: 42, scope: []string{"internal/..."},
		check: func(fs []*srcFile) (bad []string) {
			var opens []string
			walk(fs, func(f *srcFile, in *ast.FuncDecl, n ast.Node) {
				c, ok := n.(*ast.CallExpr)
				if !ok || len(c.Args) < 2 {
					return
				}
				if lit, ok := c.Args[0].(*ast.BasicLit); ok && lit.Value == `"fock.build"` {
					opens = append(opens, f.path+": "+funcName(in))
				}
			})
			if !slices.Equal(opens, []string{"internal/scf/builders.go: buildSpan"}) {
				bad = append(bad, fmt.Sprintf("fock.build spans are opened at %v; want one site, scf.buildSpan", opens))
			}
			var builders, tiled []*srcFile
			for _, f := range fs {
				switch f.path {
				case "internal/scf/builders.go":
					builders = append(builders, f)
				case "internal/scf/tiled.go":
					tiled = append(tiled, f)
				}
			}
			if !calls(builders, "instrument", "buildSpan") {
				bad = append(bad, "scf.instrument does not open its builds through buildSpan")
			}
			if !calls(tiled, "", "buildSpan") {
				bad = append(bad, "the tiled step does not open its builds through buildSpan")
			}
			return bad
		},
		mutants: []mutant{{name: "the tiled step opening its own span", file: "internal/scf/tiled.go",
			old: "sp := buildSpan(st.opt.Telemetry, string(st.alg), st.opt.rank)",
			new: "sp := st.opt.Telemetry.Start(\"fock.build\", string(st.alg), st.opt.rank, 0, nil)"}},
	},
}
