// Package knobs gates the module's configuration surface. Every field of an
// exported *Config, *Options or *Policy struct must be set by some non-test
// file outside the package that declares it, and every exported With*
// option of package music must be called by one. A knob whose only user is
// its own test doubles the configurations a test or benchmark could be
// asked to cover and serves no program, so the gate names it.
//
// The scan uses go/parser and go/ast only. A field counts as set by a
// composite-literal key, resolved by the literal's type (spelled out, or
// elided inside a slice, array or map literal), or by an assignment
// x.F = … where x is a variable or parameter whose declaration names the
// struct, or which was defined from a literal of it.
package knobs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowlist names every knob the gate lets stand, each with its reason and
// the ROADMAP item that removes or keeps it. A key is <package>.<Type>.<Field>,
// <package>.<Type> for every field of a type, or <package>.<Func>.
var allowlist = map[string]string{
	"core.Config.Mutation":         "injects protocol bugs for the checker's tests; item 23 moves mutants to go test -overlay",
	"core.Config.LeaseTTL":         "tests shorten the lease window; item 1's lease verdict keeps or deletes leases",
	"core.Config.LeaseSkew":        "tests set the skew the lease window absorbs; item 1's lease verdict keeps or deletes leases",
	"store.Config.Nodes":           "tests build stores on node subsets; item 10 keeps it",
	"store.Config.Timeout":         "tests use fast replica time-outs; item 10 keeps it",
	"store.Config.NoReadRepair":    "tests build stale replicas; item 10 keeps it",
	"store.Config.NoHintedHandoff": "tests build stale replicas; item 10 keeps it",
	"model.Options":                "options of the test-only exhaustive model checker",
	"music.WithShards":             "item 10, open: only tests and README use it",
	"music.WithNodesPerSite":       "item 10, open: only tests and README use it",
	"music.WithFailoverSites":      "item 10, open: only tests and README use it",
}

func TestEveryKnobHasAProgramSetter(t *testing.T) {
	rep, err := scan(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d fields in exported *Config/*Options/*Policy structs, %d exported music.With* options",
		len(rep.fields), len(rep.options))
	for _, msg := range rep.check(allowlist) {
		t.Error(msg)
	}
}

// TestGateNamesUnsetKnobs runs the scan over a small module in which one
// field and one option have no setter outside their package.
func TestGateNamesUnsetKnobs(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module repro\n",
		"a/a.go": `package a
type Config struct{ Lit, Elided, Declared, Defined, Param, Unset int }
func Default() Config { return Config{Unset: 1} }
`,
		"music/music.go": `package music
type Option func()
func WithUsed() Option { return nil }
func WithUnused() Option { return nil }
`,
		"b/b.go": `package b
import (
	"repro/a"
	"repro/music"
)
func f(p *a.Config) {
	_ = a.Config{Lit: 1}
	_ = map[string][]a.Config{"x": {{Elided: 1}}}
	var c a.Config
	c.Declared = 2
	d := &a.Config{}
	d.Defined = 3
	p.Param = 4
	_ = music.WithUsed()
}
`,
	}
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.check(map[string]string{"a.Config.Gone": "a stale line"})
	want := []string{"a.Config.Unset:", "music.WithUnused:", "allowlist names a.Config.Gone"}
	if len(got) != len(want) {
		t.Fatalf("gate reported %q, want one line each for %q", got, want)
	}
	for i, w := range want {
		if !strings.HasPrefix(got[i], w) {
			t.Errorf("report line %d = %q, want it to start with %q", i, got[i], w)
		}
	}
}

// knob is one tracked field or option.
type knob struct {
	key      string // <package>.<Type>.<Field> or <package>.<Func>
	typeKey  string // <package>.<Type>, empty for options
	declName string // the declaring package's name
}

type report struct {
	fields  []knob
	options []knob
	set     map[string]bool // keys some non-test file outside the package sets or calls
}

// typeRef is a resolved type: a named type (pointers stripped), or the
// element type of a slice, array or map.
type typeRef struct {
	pkg, name string
	elem      *typeRef
}

// file is one parsed non-test file.
type file struct {
	pkg     string            // import path of the file's package
	imports map[string]string // local name -> import path
	ast     *ast.File
}

// scan parses every non-test .go file under root, whose go.mod names the
// module, and reports the tracked knobs with the ones set outside their
// package.
func scan(root string) (*report, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	var files []file
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := modPath
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		imports := map[string]string{}
		for _, s := range f.Imports {
			path := strings.Trim(s.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if s.Name != nil {
				name = s.Name.Name
			}
			imports[name] = path
		}
		files = append(files, file{pkg: pkg, imports: imports, ast: f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &report{set: map[string]bool{}}
	tracked := map[typeRef]string{} // tracked struct -> <package>.<Type>
	musicPkg := ""
	for _, f := range files {
		rep.declare(f, tracked)
		if f.ast.Name.Name == "music" {
			musicPkg = f.pkg
		}
	}
	for _, f := range files {
		rep.collectSetters(f, tracked, musicPkg)
	}
	sort.Slice(rep.fields, func(i, j int) bool { return rep.fields[i].key < rep.fields[j].key })
	sort.Slice(rep.options, func(i, j int) bool { return rep.options[i].key < rep.options[j].key })
	return rep, nil
}

// check returns one line per knob with no setter outside its package and
// not allowlisted, and one per allowlist line that excuses nothing.
func (r *report) check(allow map[string]string) []string {
	var out []string
	used := map[string]bool{}
	for _, k := range append(append([]knob(nil), r.fields...), r.options...) {
		if r.set[k.key] {
			continue
		}
		if _, ok := allow[k.key]; ok {
			used[k.key] = true
			continue
		}
		if _, ok := allow[k.typeKey]; ok && k.typeKey != "" {
			used[k.typeKey] = true
			continue
		}
		verb := "set"
		if k.typeKey == "" {
			verb = "call"
		}
		out = append(out, fmt.Sprintf("%s: no non-test file outside package %s %ss it; %s it from a program, "+
			"delete it, or add an allowlist line with its reason", k.key, k.declName, verb, verb))
	}
	var stale []string
	for key := range allow {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		out = append(out, fmt.Sprintf("allowlist names %s, which is gone or now set by a program; delete the line", key))
	}
	return out
}

// declare records the knobs f declares.
func (r *report) declare(f file, tracked map[typeRef]string) {
	pkgName := f.ast.Name.Name
	for _, decl := range f.ast.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if pkgName == "music" && d.Recv == nil && d.Name.IsExported() && strings.HasPrefix(d.Name.Name, "With") {
				r.options = append(r.options, knob{key: "music." + d.Name.Name, declName: pkgName})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				s, ok := spec.(*ast.TypeSpec)
				if !ok || !s.Name.IsExported() || !hasKnobSuffix(s.Name.Name) {
					continue
				}
				st, ok := s.Type.(*ast.StructType)
				if !ok {
					continue
				}
				typeKey := pkgName + "." + s.Name.Name
				tracked[typeRef{pkg: f.pkg, name: s.Name.Name}] = typeKey
				for _, fld := range st.Fields.List {
					for _, n := range fld.Names {
						if n.IsExported() {
							r.fields = append(r.fields, knob{key: typeKey + "." + n.Name, typeKey: typeKey, declName: pkgName})
						}
					}
				}
			}
		}
	}
}

func hasKnobSuffix(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")
}

// resolve names the type a type expression spells in f.
func (f file) resolve(e ast.Expr) typeRef {
	switch t := e.(type) {
	case *ast.Ident:
		return typeRef{pkg: f.pkg, name: t.Name}
	case *ast.SelectorExpr:
		if x, ok := t.X.(*ast.Ident); ok {
			return typeRef{pkg: f.imports[x.Name], name: t.Sel.Name}
		}
	case *ast.StarExpr:
		return f.resolve(t.X)
	case *ast.ArrayType:
		elem := f.resolve(t.Elt)
		return typeRef{elem: &elem}
	case *ast.MapType:
		elem := f.resolve(t.Value)
		return typeRef{elem: &elem}
	}
	return typeRef{}
}

// collectSetters marks the knobs f sets outside their package: each
// top-level declaration is walked in source order with the types of its
// parameters and variables, shadowing ignored.
func (r *report) collectSetters(f file, tracked map[typeRef]string, musicPkg string) {
	for _, decl := range f.ast.Decls {
		vars := map[string]typeRef{}
		elided := map[*ast.CompositeLit]typeRef{} // a literal's type, as its enclosing literal decides it
		typeOf := func(e ast.Expr) typeRef {
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
				e = u.X
			}
			switch x := e.(type) {
			case *ast.CompositeLit:
				if x.Type != nil {
					return f.resolve(x.Type)
				}
				return elided[x]
			case *ast.Ident:
				return vars[x.Name]
			}
			return typeRef{}
		}
		mark := func(t typeRef, field string) {
			if key, ok := tracked[t]; ok && t.pkg != f.pkg {
				r.set[key+"."+field] = true
			}
		}
		if fd, ok := decl.(*ast.FuncDecl); ok {
			for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
				if fl == nil {
					continue
				}
				for _, p := range fl.List {
					for _, n := range p.Names {
						vars[n.Name] = f.resolve(p.Type)
					}
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if x.Type != nil {
						vars[name.Name] = f.resolve(x.Type)
					} else if len(x.Values) == len(x.Names) {
						vars[name.Name] = typeOf(x.Values[i])
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						mark(typeOf(sel.X), sel.Sel.Name)
					}
					if id, ok := lhs.(*ast.Ident); ok && x.Tok == token.DEFINE && len(x.Lhs) == len(x.Rhs) {
						vars[id.Name] = typeOf(x.Rhs[i])
					}
				}
			case *ast.CompositeLit:
				t := typeOf(x)
				for _, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && t.elem == nil {
							mark(t, key.Name)
							continue
						}
						elt = kv.Value
					}
					if u, ok := elt.(*ast.UnaryExpr); ok && u.Op == token.AND {
						elt = u.X
					}
					if lit, ok := elt.(*ast.CompositeLit); ok && lit.Type == nil && t.elem != nil {
						elided[lit] = *t.elem
					}
				}
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok {
						if path, ok := f.imports[id.Name]; ok && path == musicPkg && path != f.pkg {
							r.set["music."+sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}
}
