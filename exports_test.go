package priste_test

import (
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

// stdInterfaceMethods are method names the standard library calls
// through its own interfaces (fmt.Stringer, error, flag.Value,
// encoding.BinaryMarshaler, json.Marshaler, io.Writer, http.Handler,
// sort.Interface, slog.LogValuer, …). A method with one of these names
// may have no selector anywhere in the repository and still be called.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Set": true, "Get": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true, "Flush": true,
	"Len": true, "Less": true, "Swap": true, "LogValue": true,
}

// goFile is one parsed Go file of the root module or the nested
// benchmark module.
type goFile struct {
	dir  string // slash path from the repository root; "." is package priste
	name string
	test bool
	f    *ast.File
}

// parseTree parses every Go file under the repository root, comments
// included, skipping hidden directories and testdata.
func parseTree(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			dir:  filepath.ToSlash(filepath.Dir(p)),
			name: d.Name(),
			test: strings.HasSuffix(p, "_test.go"),
			f:    f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// importPath is the path other packages import dir by.
func importPath(dir string) string {
	if dir == "." {
		return "priste"
	}
	return "priste/" + dir
}

// facadeCaller reports whether gf counts as a caller of priste.go: an
// example, a command or a root benchmark, but not internal/, the
// benchmark module or the facade's own tests.
func facadeCaller(gf goFile) bool {
	top, _, _ := strings.Cut(gf.dir, "/")
	return top != "internal" && top != "benchmark" && !(gf.dir == "." && gf.name == "priste_test.go")
}

// exportedDecl is one exported top-level name, or (recv != "") one
// exported method.
type exportedDecl struct {
	dir, recv, name string
}

func (d exportedDecl) String() string {
	pkg := path.Base(importPath(d.dir))
	if d.recv != "" {
		return pkg + "." + d.recv + "." + d.name
	}
	return pkg + "." + d.name
}

// exportedDecls lists gf's exported functions, methods, types, vars and
// consts.
func exportedDecls(gf goFile) []exportedDecl {
	var out []exportedDecl
	add := func(recv string, id *ast.Ident) {
		if id.IsExported() {
			out = append(out, exportedDecl{dir: gf.dir, recv: recv, name: id.Name})
		}
	}
	for _, d := range gf.f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				recv = receiverName(d.Recv.List[0].Type)
			}
			add(recv, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add("", spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add("", id)
					}
				}
			}
		}
	}
	return out
}

func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// references is what the files of both modules say about names.
type references struct {
	// used[path][name]: a non-test file names it (bare inside its own
	// package, pkg.name elsewhere), or a test file of another package
	// spells pkg.name.
	used map[string]map[string]bool
	// facade[name]: a facadeCaller spells priste.name.
	facade map[string]bool
	// methods[name]: a non-test file selects name or declares it in an
	// interface type. testMethods[name][dir]: a test file of dir
	// selects name.
	methods     map[string]bool
	testMethods map[string]map[string]bool
}

func collectReferences(files []goFile) references {
	r := references{
		used:        map[string]map[string]bool{},
		facade:      map[string]bool{},
		methods:     map[string]bool{},
		testMethods: map[string]map[string]bool{},
	}
	mark := func(m map[string]map[string]bool, k, name string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][name] = true
	}
	pkgName := map[string]string{} // import path → package clause
	for _, gf := range files {
		if !gf.test {
			pkgName[importPath(gf.dir)] = gf.f.Name.Name
		}
	}
	for _, gf := range files {
		imports := map[string]string{} // local name → path
		for _, spec := range gf.f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			name := pkgName[p]
			if name == "" {
				name = path.Base(p)
			}
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		// Identifiers that name what is declared, or the field of a
		// selector, are not uses of a package-level name.
		skip := map[*ast.Ident]bool{}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if gf.test {
					mark(r.testMethods, n.Sel.Name, gf.dir)
				} else {
					r.methods[n.Sel.Name] = true
				}
				id, ok := n.X.(*ast.Ident)
				if !ok {
					break
				}
				p, ok := imports[id.Name]
				if !ok {
					break
				}
				if !gf.test || p != importPath(gf.dir) {
					mark(r.used, p, n.Sel.Name)
				}
				if p == "priste" && facadeCaller(gf) {
					r.facade[n.Sel.Name] = true
				}
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.InterfaceType:
				if !gf.test {
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							r.methods[id.Name] = true
						}
					}
				}
			case *ast.Ident:
				if !gf.test && !skip[n] {
					mark(r.used, importPath(gf.dir), n.Name)
				}
			}
			return true
		})
	}
	return r
}

// facadeSignatureNames are the identifiers in the signatures of
// priste.go's exported functions: a type a caller receives from the
// facade may go unnamed by the caller.
func facadeSignatureNames(files []goFile) map[string]bool {
	in := map[string]bool{}
	for _, gf := range files {
		if gf.dir != "." || gf.test {
			continue
		}
		for _, d := range gf.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				ast.Inspect(fd.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						in[id.Name] = true
					}
					return true
				})
			}
		}
	}
	return in
}

// selectedElsewhere reports whether a directory other than dir is in dirs.
func selectedElsewhere(dirs map[string]bool, dir string) bool {
	for d := range dirs {
		if d != dir {
			return true
		}
	}
	return false
}

// TestOracleStaysInTests: the reference package is for tests. No
// non-test file of either module imports it, so no binary links it.
func TestOracleStaysInTests(t *testing.T) {
	for _, gf := range parseTree(t) {
		for _, spec := range gf.f.Imports {
			if !gf.test && strings.Trim(spec.Path.Value, `"`) == "priste/internal/oracle" {
				t.Errorf("%s imports priste/internal/oracle", path.Join(gf.dir, gf.name))
			}
		}
	}
}

// TestExportsHaveCallers holds priste.go and internal/ to the code that
// uses them.
//
// A function, type, var or const of internal/ is used when a non-test
// file of either module (this one or benchmark/) names it, or a test
// file of another package spells pkg.Name: a reference implementation
// that only its own package's tests call is unexported. A method is
// matched by name, so that calls through interfaces count: it is used
// when a non-test file selects that name or declares it in an interface
// type, when a test file of another package selects it, or when the
// standard library calls it through one of its own interfaces.
//
// An exported name of priste.go must be spelled priste.Name by an
// example, a command or a root benchmark, or appear in the signature of
// an exported function; internal/ does not count as a caller.
func TestExportsHaveCallers(t *testing.T) {
	files := parseTree(t)
	refs := collectReferences(files)
	inSignature := facadeSignatureNames(files)
	var bad []string
	for _, gf := range files {
		internal := strings.HasPrefix(gf.dir, "internal/")
		if gf.test || !(internal || gf.dir == ".") {
			continue
		}
		for _, d := range exportedDecls(gf) {
			var ok bool
			switch {
			case !internal:
				ok = d.recv != "" || refs.facade[d.name] || inSignature[d.name]
			case d.recv != "":
				ok = refs.methods[d.name] || stdInterfaceMethods[d.name] || selectedElsewhere(refs.testMethods[d.name], d.dir)
			default:
				ok = refs.used[importPath(d.dir)][d.name]
			}
			if !ok {
				bad = append(bad, d.String())
			}
		}
	}
	sort.Strings(bad)
	for _, name := range bad {
		t.Errorf("%s: exported, but no caller uses it", name)
	}
}
