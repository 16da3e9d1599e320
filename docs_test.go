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
	files, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := make(map[string]bool)
	fset := token.NewFileSet()
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
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners[sel.Sel.Name] {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || (pkg.Name != "flag" && pkg.Name != "fs") {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if arg < len(call.Args) {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatalf("%s: %v", fset.Position(lit.Pos()), err)
					}
					flags[name] = true
				}
			}
			return true
		})
	}
	return flags
}

var codeSpan = regexp.MustCompile("`([^`]+)`")

// goToolFlags are the go tool's flags that the docs' `go test` command
// lines name.
var goToolFlags = map[string]bool{"race": true, "run": true}

// docFlags returns the -name tokens in the inline code spans of a
// Markdown file (fenced blocks excluded), each mapped to one line it
// appears on.
func docFlags(t *testing.T, path string) map[string]int {
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
				if len(tok) < 2 || tok[0] != '-' || !('a' <= tok[1] && tok[1] <= 'z' || 'A' <= tok[1] && tok[1] <= 'Z') {
					continue
				}
				name, _, _ := strings.Cut(tok[1:], "=")
				if _, seen := out[name]; !seen {
					out[name] = line
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
	docs := []string{"README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	for _, doc := range docs {
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
