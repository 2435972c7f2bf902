package priste_test

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"net/http/httptest"
	"net/url"
	"os"
	"path"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"priste/internal/api"
	"priste/internal/server"
)

// flagMethods maps the flag package's definition methods (on the package
// or on a FlagSet) to the position of the flag-name argument.
var flagMethods = map[string]int{
	"String": 0, "Int": 0, "Int64": 0, "Float64": 0, "Duration": 0, "Bool": 0,
	"StringVar": 1, "IntVar": 1, "Int64Var": 1, "Float64Var": 1, "DurationVar": 1, "BoolVar": 1, "Var": 1,
}

// command is what a binary's sources define: its flags, by flag set
// ("" for the command line's own, else the last word of the
// flag.NewFlagSet name) and true for a boolean, which takes no value;
// and the words its switch statements accept as subcommands.
type command struct {
	flags map[string]map[string]bool
	words map[string]bool
}

func commandDefinitions(files []goFile, dir string) command {
	c := command{flags: map[string]map[string]bool{"": {}}, words: map[string]bool{}}
	for _, gf := range files {
		if gf.dir != dir || gf.test {
			continue
		}
		for _, d := range gf.f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sets := map[string]string{"flag": ""} // receiver → flag set
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
						break
					}
					id, ok := n.Lhs[0].(*ast.Ident)
					call, isCall := n.Rhs[0].(*ast.CallExpr)
					if !ok || !isCall || len(call.Args) == 0 {
						break
					}
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewFlagSet" {
						if name, ok := stringLit(call.Args[0]); ok {
							f := strings.Fields(name)
							sets[id.Name] = f[len(f)-1]
						}
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					recv, ok := sel.X.(*ast.Ident)
					i, isDef := flagMethods[sel.Sel.Name]
					if !ok || !isDef || len(n.Args) <= i {
						break
					}
					set, ok := sets[recv.Name]
					name, isLit := stringLit(n.Args[i])
					if !ok || !isLit {
						break
					}
					if c.flags[set] == nil {
						c.flags[set] = map[string]bool{}
					}
					c.flags[set][name] = strings.HasPrefix(sel.Sel.Name, "Bool")
				case *ast.CaseClause:
					for _, e := range n.List {
						if w, ok := stringLit(e); ok {
							c.words[w] = true
						}
					}
				}
				return true
			})
		}
	}
	return c
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// fencedLines returns the README's fenced code lines, with backslash
// continuations joined and shell comments cut.
func fencedLines(readme string) []string {
	var out []string
	in, cont := false, ""
	for _, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, "```") {
			in = !in
			continue
		}
		if !in {
			continue
		}
		if i := strings.Index(line, " #"); i >= 0 {
			line = line[:i]
		}
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		if strings.HasSuffix(line, `\`) {
			cont += strings.TrimSuffix(line, `\`) + " "
			continue
		}
		out = append(out, cont+line)
		cont = ""
	}
	return out
}

// shellWords splits a command line on blanks, keeping quoted strings
// whole and dropping the brackets that mark optional arguments.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	quote := rune(0)
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '"' || r == '\'':
			quote = r
		case r == ' ' || r == '\t':
			if cur.Len() > 0 {
				words = append(words, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		words = append(words, cur.String())
	}
	for i, w := range words {
		words[i] = strings.Trim(w, "[]")
	}
	return words
}

// checkInvocation reports each flag or subcommand in args (the words
// after the binary's name, up to the next pipe or redirection) that cmd
// does not define. Only pristectl takes subcommands; a flag after one
// belongs to the flag set of the last bare word, and every other bare
// word is an argument.
func checkInvocation(t *testing.T, bin string, cmd command, args []string, line string) {
	t.Helper()
	set, sawSubcommand := "", false
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "|" || a == ";" || a == "&&" || strings.HasPrefix(a, ">") || strings.HasPrefix(a, "<") {
			return
		}
		if !strings.HasPrefix(a, "-") {
			switch {
			case bin != "pristectl":
			case !sawSubcommand:
				if !cmd.words[a] {
					t.Errorf("README runs %s %s, which cmd/%s does not define:\n\t%s", bin, a, bin, line)
				}
				set, sawSubcommand = a, true
			case cmd.flags[a] != nil:
				set = a
			}
			continue
		}
		name, _, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
		isBool, ok := cmd.flags[set][name]
		if !ok {
			t.Errorf("README passes %s -%s (flag set %q), which cmd/%s does not define:\n\t%s", bin, name, set, bin, line)
			continue
		}
		if !isBool && !hasValue {
			i++
		}
	}
}

// statszPaths lists the /statsz document's "section.field" JSON paths.
func statszPaths() map[string]bool {
	paths := map[string]bool{}
	jsonName := func(f reflect.StructField) string {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		return name
	}
	var fields func(prefix string, typ reflect.Type)
	fields = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous && f.Type.Kind() == reflect.Struct {
				fields(prefix, f.Type) // encoding/json flattens embedded structs
				continue
			}
			paths[prefix+jsonName(f)] = true
		}
	}
	st := reflect.TypeOf(api.Stats{})
	for i := 0; i < st.NumField(); i++ {
		sec := st.Field(i)
		typ := sec.Type
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		if typ.Kind() == reflect.Struct {
			fields(jsonName(sec)+".", typ)
		}
	}
	return paths
}

// TestReadmeMatchesCommands holds the README to what it documents.
//
// Every pristed, pristectl and pristerouter invocation in a fenced block
// may use only the flags and subcommands its cmd/ sources define.
//
// Every curl line in a fenced block must name a route pristed serves:
// its -X method (GET without one) and path resolve to a pattern of the
// daemon's request router. Every control call's route (api.Calls) must
// be cited in backticks, as "METHOD /path".
//
// Every benchmark metric the README cites in backticks must be listed in
// BENCHMARK.json. A per-layer citation is `layer.name` for a layer
// BENCHMARK.json has, unless it is a /statsz path or names a function,
// method, type, var or const of internal/layer. An end-to-end citation
// is an undotted snake_case name ending in a unit suffix of
// BENCHMARK.json's end-to-end metrics.
func TestReadmeMatchesCommands(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	files := parseTree(t)

	cmds := map[string]command{}
	for _, bin := range []string{"pristed", "pristectl", "pristerouter"} {
		cmds[bin] = commandDefinitions(files, "cmd/"+bin)
		if len(cmds[bin].flags[""]) == 0 {
			t.Fatalf("found no flags in cmd/%s", bin)
		}
	}
	invocations := 0
	for _, line := range fencedLines(readme) {
		words := shellWords(line)
		for i, w := range words {
			// A binary is the first word of a command or what go run runs.
			first := i == 0 || words[i-1] == "run" || words[i-1] == "|" || words[i-1] == ";" || words[i-1] == "&&"
			if cmd, ok := cmds[path.Base(w)]; ok && first {
				invocations++
				checkInvocation(t, path.Base(w), cmd, words[i+1:], line)
			}
		}
	}
	if invocations == 0 {
		t.Fatal("found no pristed, pristectl or pristerouter invocation in the README")
	}

	cfg := server.DefaultConfig()
	cfg.GridW, cfg.GridH = 4, 4
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mux := srv.Routes()
	curls := 0
	for _, line := range fencedLines(readme) {
		words := shellWords(line)
		if len(words) == 0 || words[0] != "curl" {
			continue
		}
		curls++
		method, target := "GET", ""
		for i, w := range words {
			if w == "-X" && i+1 < len(words) {
				method = words[i+1]
			}
			if _, p, ok := strings.Cut(w, ":8377/"); ok && !strings.HasPrefix(w, "-") {
				target = "/" + p
			}
		}
		u, err := url.Parse(target)
		if err != nil || target == "" {
			t.Errorf("README curl line names no pristed URL:\n\t%s", line)
			continue
		}
		if _, pattern := mux.Handler(httptest.NewRequest(method, u.EscapedPath(), nil)); pattern == "" {
			t.Errorf("README runs curl %s %s, which pristed does not route:\n\t%s", method, u.Path, line)
		}
	}
	if curls == 0 {
		t.Fatal("found no curl line in the README")
	}
	routes := map[string]bool{}
	for _, m := range regexp.MustCompile("`([A-Z]+\\s+/[^`]*)`").FindAllStringSubmatch(readme, -1) {
		routes[strings.Join(strings.Fields(m[1]), " ")] = true
	}
	for _, call := range api.Calls {
		if !routes[call.Route] {
			t.Errorf("README does not cite the control call route `%s`", call.Route)
		}
	}

	raw, err = os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	listed, layers, units := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, m := range bench.EndToEnd {
		listed[m.Name] = true
		units[m.Name[strings.LastIndexByte(m.Name, '_')+1:]] = true
	}
	for _, m := range bench.PerLayer {
		listed[m.Name] = true
		layer, _, _ := strings.Cut(m.Name, ".")
		layers[layer] = true
	}
	declared := map[string]bool{} // "layer.name" for each declaration in internal/layer
	for _, gf := range files {
		layer, ok := strings.CutPrefix(gf.dir, "internal/")
		if !ok || !layers[layer] {
			continue
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[layer+"."+n.Name.Name] = true
			case *ast.TypeSpec:
				declared[layer+"."+n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[layer+"."+id.Name] = true
				}
			}
			return true
		})
	}
	statsz := statszPaths()
	cited := 0
	for _, m := range regexp.MustCompile("`([a-z][a-z0-9]*(?:[._][a-z0-9]+)+)`").FindAllStringSubmatch(readme, -1) {
		name := m[1]
		layer, _, dotted := strings.Cut(name, ".")
		switch {
		case dotted && (!layers[layer] || statsz[name] || declared[name]):
			continue
		case !dotted && !units[name[strings.LastIndexByte(name, '_')+1:]]:
			continue
		}
		cited++
		if !listed[name] {
			t.Errorf("README cites benchmark metric `%s`, which BENCHMARK.json does not list", name)
		}
	}
	if cited == 0 {
		t.Fatal("found no benchmark metric cited in the README")
	}
}

// TestCitedTestsExist: every TestX, FuzzX and BenchmarkX that README.md
// or a comment in a non-test Go file of either module names is a
// function declared in some _test.go file, so a renamed or deleted test
// leaves no pointer to nothing behind.
func TestCitedTestsExist(t *testing.T) {
	files := parseTree(t)
	declared := map[string]bool{}
	for _, gf := range files {
		for _, d := range gf.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && gf.test && fd.Recv == nil {
				declared[fd.Name.Name] = true
			}
		}
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	check := func(where, text string) {
		for _, name := range cited.FindAllString(text, -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go file declares", where, name)
			}
		}
	}
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	check("README.md", string(raw))
	for _, gf := range files {
		if !gf.test {
			for _, cg := range gf.f.Comments {
				check(path.Join(gf.dir, gf.name), cg.Text())
			}
		}
	}
}
