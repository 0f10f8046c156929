package regalloc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestPaperMap keeps docs/PAPER_MAP.md true to the tree: every entry's
// symbol is declared, every `go test ./dir -run Name` names a test
// function in dir and every `go run ./dir` a directory, and each paper
// section, figure, table and DESIGN.md §1 piece has exactly one entry.
func TestPaperMap(t *testing.T) {
	doc, err := os.ReadFile("docs/PAPER_MAP.md")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, k := range []string{"§1", "§2", "§3", "§4.1", "§4.2", "§4.3", "§5", "§6",
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Table 1", "Table 2"} {
		want[k] = 0
	}
	for i := 1; i <= designPieces(t); i++ {
		want[strconv.Itoa(i)+"."] = 0
	}

	decls := map[string]map[string]bool{} // directory -> declared symbols
	command := regexp.MustCompile("`([^`]*)`")
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if !strings.HasPrefix(line, "| ") || len(cells) != 3 || cells[1] == "Go symbol" {
			continue
		}
		key := strings.Fields(cells[0])[0]
		if key == "Figure" || key == "Table" {
			key += " " + strings.Fields(cells[0])[1]
		}
		if _, ok := want[key]; !ok {
			t.Errorf("entry %q is no section, figure, table or DESIGN.md §1 piece", key)
		}
		want[key]++

		dir, sym, ok := strings.Cut(strings.Trim(cells[1], "`"), ".")
		if !ok {
			t.Errorf("%s: symbol %q is not package-dir.Symbol", key, cells[1])
		} else if !declared(t, decls, dir, false)[sym] {
			t.Errorf("%s: %s declares no %s", key, dir, sym)
		}

		for _, m := range command.FindAllStringSubmatch(cells[2], -1) {
			f := strings.Fields(m[1])
			switch {
			case len(f) >= 5 && f[0] == "go" && f[1] == "test" && f[3] == "-run":
				if !declared(t, decls, strings.TrimPrefix(f[2], "./"), true)[f[4]] {
					t.Errorf("%s: %s has no test %s", key, f[2], f[4])
				}
			case len(f) >= 3 && f[0] == "go" && f[1] == "run":
				if st, err := os.Stat(f[2]); err != nil || !st.IsDir() {
					t.Errorf("%s: no command directory %s", key, f[2])
				}
			default:
				t.Errorf("%s: %q is neither `go test ./dir -run Name` nor `go run ./dir ...`", key, m[1])
			}
		}
	}
	for k, n := range want {
		if n != 1 {
			t.Errorf("%s has %d entries, want exactly one", k, n)
		}
	}
}

// designPieces counts the numbered pieces in DESIGN.md §1.
func designPieces(t *testing.T) int {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(doc), "\n## 1.")
	sec, _, _ = strings.Cut(sec, "\n## ")
	n := len(regexp.MustCompile(`(?m)^\d+\. \*\*`).FindAllString(sec, -1))
	if n == 0 {
		t.Fatal("DESIGN.md §1 lists no pieces")
	}
	return n
}

// declared returns the symbols dir's Go files declare, parsing them
// once: functions, types, variables and constants by name, and methods
// as Type.Method or (*Type).Method. With tests set it reads only the
// _test.go files, and otherwise only the rest.
func declared(t *testing.T, cache map[string]map[string]bool, dir string, tests bool) map[string]bool {
	ck := dir + "#" + strconv.FormatBool(tests)
	if syms, ok := cache[ck]; ok {
		return syms
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	syms := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") != tests {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				syms[receiver(d)+d.Name.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						syms[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							syms[n.Name] = true
						}
					}
				}
			}
		}
	}
	cache[ck] = syms
	return syms
}

// receiver returns "T." or "(*T)." for a method on T or *T, and "" for
// a function.
func receiver(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	switch x := d.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")."
		}
	case *ast.Ident:
		return x.Name + "."
	}
	return "?."
}
