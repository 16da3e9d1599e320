package prmsel

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagDefiners are the flag.FlagSet methods (and flag package functions)
// that register a flag. The *Var forms take the destination first and the
// name second; the others take the name first.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true,
	"Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true,
	"Func": true, "TextVar": true, "Var": true,
	"Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"String": true, "StringVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
}

// registeredFlags returns the name of every flag the binaries under cmd/
// register through the flag package or a FlagSet named fs.
func registeredFlags(t *testing.T) map[string]bool {
	t.Helper()
	return callLiterals(t, []string{filepath.Join("cmd", "*", "*.go")}, func(fun ast.Expr) (int, bool) {
		sel, ok := fun.(*ast.SelectorExpr)
		if !ok || !flagDefiners[sel.Sel.Name] {
			return 0, false
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || (pkg.Name != "flag" && pkg.Name != "fs") {
			return 0, false
		}
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			return 1, true
		}
		return 0, true
	})
}

// familyRegistrars are the obs.Registry methods that register a metric
// family; each takes the family name first.
var familyRegistrars = map[string]bool{
	"Counter": true, "CounterVec": true, "Gauge": true, "GaugeVec": true,
	"GaugeFunc": true, "Histogram": true, "HistogramVec": true,
}

// registeredFamilies returns every prm_ metric family that the serving
// packages register under a literal name.
func registeredFamilies(t *testing.T) map[string]bool {
	t.Helper()
	globs := []string{filepath.Join("internal", "serve", "*.go"), filepath.Join("internal", "cluster", "*.go")}
	all := callLiterals(t, globs, func(fun ast.Expr) (int, bool) {
		sel, ok := fun.(*ast.SelectorExpr)
		return 0, ok && familyRegistrars[sel.Sel.Name]
	})
	families := make(map[string]bool)
	for name := range all {
		if strings.HasPrefix(name, "prm_") {
			families[name] = true
		}
	}
	return families
}

// routeGlobs are the files that register the HTTP routes: serve's
// replica, the gate, and the binaries.
var routeGlobs = []string{
	filepath.Join("internal", "serve", "*.go"),
	filepath.Join("internal", "cluster", "*.go"),
	filepath.Join("cmd", "*", "*.go"),
}

// registeredRoutes returns the path of every route pattern registered
// through a mux's HandleFunc or Handle, or through serve's api wrapper,
// without its method: "/v1/models/{name}/load", "/debug/pprof/".
func registeredRoutes(t *testing.T) map[string]bool {
	t.Helper()
	all := callLiterals(t, routeGlobs, func(fun ast.Expr) (int, bool) {
		switch f := fun.(type) {
		case *ast.SelectorExpr:
			return 0, f.Sel.Name == "HandleFunc" || f.Sel.Name == "Handle"
		case *ast.Ident:
			return 0, f.Name == "api"
		}
		return 0, false
	})
	routes := make(map[string]bool)
	for pattern := range all {
		if i := strings.IndexByte(pattern, '/'); i >= 0 {
			routes[pattern[i:]] = true
		}
	}
	return routes
}

// callLiterals parses the non-test Go files matching globs and returns the
// string literal passed at argument index arg of every call whose
// function expression match accepts.
func callLiterals(t *testing.T, globs []string, match func(fun ast.Expr) (arg int, ok bool)) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	fset := token.NewFileSet()
	for _, glob := range globs {
		files, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				arg, ok := match(call.Fun)
				if !ok || arg >= len(call.Args) {
					return true
				}
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatalf("%s: %v", fset.Position(lit.Pos()), err)
					}
					out[name] = true
				}
				return true
			})
		}
	}
	return out
}

var codeSpan = regexp.MustCompile("`([^`]+)`")

// goToolFlags are the go tool's flags that the docs' `go test` command
// lines name.
var goToolFlags = map[string]bool{"race": true, "run": true}

// operatorDocs are the documents whose inline code the docs tests check.
var operatorDocs = []string{"README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}

// docTokens returns the whitespace-separated tokens of the inline code
// spans of a Markdown file (fenced blocks excluded), each mapped to the
// first line it appears on.
func docTokens(t *testing.T, path string) map[string]int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int)
	// chunk holds the lines since the last fence, from line first on; a
	// code span may wrap across lines.
	fenced := false
	var chunk []string
	var first int
	scan := func() {
		text := strings.Join(chunk, "\n")
		for _, loc := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			line := first + strings.Count(text[:loc[0]], "\n")
			for _, tok := range strings.Fields(text[loc[2]:loc[3]]) {
				if _, seen := out[tok]; !seen {
					out[tok] = line
				}
			}
		}
		chunk = chunk[:0]
	}
	for i, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			scan()
			continue
		}
		if fenced {
			continue
		}
		if len(chunk) == 0 {
			first = i + 1
		}
		chunk = append(chunk, line)
	}
	scan()
	return out
}

// docFlags returns the -name tokens of a Markdown file's inline code
// spans, each mapped to the first line it appears on.
func docFlags(t *testing.T, path string) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for tok, line := range docTokens(t, path) {
		if len(tok) < 2 || tok[0] != '-' || !('a' <= tok[1] && tok[1] <= 'z' || 'A' <= tok[1] && tok[1] <= 'Z') {
			continue
		}
		name, _, _ := strings.Cut(tok[1:], "=")
		if prev, seen := out[name]; !seen || line < prev {
			out[name] = line
		}
	}
	return out
}

// TestDocsNameOnlyRegisteredFlags: every -flag the operator docs name in
// an inline code span is registered by some binary under cmd/, or is one
// of goToolFlags. Registered flags no doc names are logged, not failed:
// each is a candidate for documentation or deletion.
func TestDocsNameOnlyRegisteredFlags(t *testing.T) {
	flags := registeredFlags(t)
	if len(flags) == 0 {
		t.Fatal("found no flag registrations under cmd/")
	}
	named := make(map[string]bool)
	for _, doc := range operatorDocs {
		for name, line := range docFlags(t, doc) {
			named[name] = true
			if !flags[name] && !goToolFlags[name] {
				t.Errorf("%s:%d names -%s, which no binary under cmd/ registers", doc, line, name)
			}
		}
	}
	var undocumented []string
	for name := range flags {
		if !named[name] {
			undocumented = append(undocumented, "-"+name)
		}
	}
	sort.Strings(undocumented)
	t.Logf("%d registered flags, %d named in the docs; registered but named by no doc: %s",
		len(flags), len(named), strings.Join(undocumented, " "))
}

// TestDocsNameOnlyRegisteredFamilies: every prm_ metric family the
// operator docs name in an inline code span is registered by
// internal/serve or internal/cluster. A trailing {…} label set is
// ignored, and a name ending in * is a prefix that must match at least
// one family. Registered families no doc names are logged, not failed.
func TestDocsNameOnlyRegisteredFamilies(t *testing.T) {
	families := registeredFamilies(t)
	if len(families) == 0 {
		t.Fatal("found no prm_ metric registrations in internal/serve or internal/cluster")
	}
	covered := make(map[string]bool)
	for _, doc := range operatorDocs {
		for tok, line := range docTokens(t, doc) {
			if !strings.HasPrefix(tok, "prm_") {
				continue
			}
			name, _, _ := strings.Cut(tok, "{")
			prefix, isPrefix := strings.CutSuffix(name, "*")
			matched := false
			for fam := range families {
				if fam == name || isPrefix && strings.HasPrefix(fam, prefix) {
					matched = true
					// The bare prm_* matches every family and so
					// documents none of them.
					if prefix != "prm_" {
						covered[fam] = true
					}
				}
			}
			if !matched {
				t.Errorf("%s:%d names %s, which no registered metric family matches", doc, line, tok)
			}
		}
	}
	var unnamed []string
	for fam := range families {
		if !covered[fam] {
			unnamed = append(unnamed, fam)
		}
	}
	sort.Strings(unnamed)
	t.Logf("%d registered families, %d named in the docs (exactly or by prefix); named by no doc: %s",
		len(families), len(covered), strings.Join(unnamed, " "))
}

// goneRoutes are routes the docs mention only to say they were removed:
// a doc may name them, and no pattern may register them again.
var goneRoutes = map[string]bool{"/debug/vars": true}

// routeToken reports whether an inline-code token of the docs names a
// route: it starts with a slash and a letter, and is neither a scratch
// file of the examples (/tmp/…) nor the .gitignore pattern /prmbench.
func routeToken(tok string) bool {
	return len(tok) > 1 && tok[0] == '/' && ('a' <= tok[1] && tok[1] <= 'z') &&
		!strings.HasPrefix(tok, "/tmp/") && tok != "/prmbench"
}

// routeServes reports whether the route pattern path pat serves the
// documented path doc: a pattern ending in a slash serves its subtree,
// and a {wildcard} segment of the pattern matches any one segment,
// including a documented placeholder such as {name} or <m>.
func routeServes(pat, doc string) bool {
	if strings.HasSuffix(pat, "/") {
		return strings.HasPrefix(doc, pat)
	}
	ps, ds := strings.Split(pat, "/"), strings.Split(doc, "/")
	if len(ps) != len(ds) {
		return false
	}
	for i := range ps {
		if ps[i] != ds[i] && !strings.HasPrefix(ps[i], "{") {
			return false
		}
	}
	return true
}

// TestDocsNameOnlyRegisteredRoutes: every route the operator docs name
// in an inline code span is served by a registered pattern; a query
// string is ignored, and a path ending in * is a prefix that must start
// at least one registered route. The removed routes of goneRoutes may be
// named but must stay unregistered. Registered routes no doc names are
// logged, not failed.
func TestDocsNameOnlyRegisteredRoutes(t *testing.T) {
	routes := registeredRoutes(t)
	if len(routes) == 0 {
		t.Fatal("found no route registrations")
	}
	for r := range routes {
		if goneRoutes[r] {
			t.Errorf("%s is registered again, but the docs say it was removed", r)
		}
	}
	covered := make(map[string]bool)
	for _, doc := range operatorDocs {
		for tok, line := range docTokens(t, doc) {
			if !routeToken(tok) {
				continue
			}
			path, _, _ := strings.Cut(tok, "?")
			if goneRoutes[path] {
				continue
			}
			prefix, isPrefix := strings.CutSuffix(path, "*")
			matched := false
			for r := range routes {
				if isPrefix && strings.HasPrefix(r, prefix) || !isPrefix && routeServes(r, path) {
					matched = true
					covered[r] = true
				}
			}
			if !matched {
				t.Errorf("%s:%d names %s, which no registered route serves", doc, line, tok)
			}
		}
	}
	var unnamed []string
	for r := range routes {
		if !covered[r] {
			unnamed = append(unnamed, r)
		}
	}
	sort.Strings(unnamed)
	t.Logf("%d registered routes, %d named in the docs; named by no doc: %s",
		len(routes), len(covered), strings.Join(unnamed, " "))
}
