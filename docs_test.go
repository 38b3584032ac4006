package repro

import (
	"encoding/csv"
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

// numberRE matches the numeric tokens of a table cell, scientific
// notation included; a rational such as 4/3 yields its numerator and
// denominator.
var numberRE = regexp.MustCompile(`[+-]?\d+(\.\d+)?([eE][+-]?\d+)?`)

// TestExperimentsMatchResults checks that the tables EXPERIMENTS.md prints
// agree with the committed results/ files. Columns are matched by header
// name and rows by position; every number a document cell prints must be
// the matching CSV cell's number rounded to the digits the document shows.
func TestExperimentsMatchResults(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Split(string(raw), "\n")
	// Each ID names the "## <ID> " section whose first table is checked
	// against results/<id>.csv.
	for _, id := range []string{"T4", "T6", "T7", "T8", "T9", "T10", "T11", "V1"} {
		t.Run(id, func(t *testing.T) {
			header, rows := markdownTable(t, doc, "## "+id+" ")
			path := "results/" + strings.ToLower(id) + ".csv"
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			records, err := csv.NewReader(f).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(records) == 0 {
				t.Fatalf("%s is empty", path)
			}
			if len(rows) != len(records)-1 {
				t.Fatalf("EXPERIMENTS.md has %d rows, %s has %d", len(rows), path, len(records)-1)
			}
			col := make(map[string]int, len(records[0]))
			for j, name := range records[0] {
				col[name] = j
			}
			for j, name := range header {
				k, ok := col[name]
				if !ok {
					t.Fatalf("EXPERIMENTS.md column %q is not in %s", name, path)
				}
				for i, row := range rows {
					if !cellMatches(row[j], records[i+1][k]) {
						t.Errorf("row %d column %q: EXPERIMENTS.md prints %q, %s has %q",
							i+1, name, row[j], path, records[i+1][k])
					}
				}
			}
		})
	}
}

// markdownTable returns the header and body cells of the first table
// after the line starting with heading, failing if the section has none.
func markdownTable(t *testing.T, doc []string, heading string) ([]string, [][]string) {
	t.Helper()
	start := -1
	for i, line := range doc {
		if strings.HasPrefix(line, heading) {
			start = i + 1
			break
		}
	}
	if start < 0 {
		t.Fatalf("EXPERIMENTS.md has no section %q", heading)
	}
	var table [][]string
	for _, line := range doc[start:] {
		if strings.HasPrefix(line, "## ") {
			break
		}
		if !strings.HasPrefix(line, "|") {
			if table != nil {
				break
			}
			continue
		}
		// An escaped pipe (\|) is cell text, not a column separator.
		cells := strings.Split(strings.Trim(strings.ReplaceAll(line, `\|`, "\x00"), "|"), "|")
		for j, cell := range cells {
			cell = strings.ReplaceAll(cell, "\x00", "|")
			cells[j] = strings.TrimSpace(strings.ReplaceAll(cell, `\`, ""))
		}
		if table != nil && len(cells) != len(table[0]) {
			t.Fatalf("section %q: table row %q has %d cells, header has %d", heading, line, len(cells), len(table[0]))
		}
		table = append(table, cells)
	}
	if len(table) < 2 {
		t.Fatalf("section %q has no table", heading)
	}
	// table[1] is the |---| separator row.
	return table[0], table[2:]
}

// cellMatches reports whether the document cell prints the numbers of the
// CSV cell, each rounded to the document's precision. A number the
// document prints in scientific notation must match in its mantissa at the
// digits shown and in its exponent exactly, however either side pads it
// (2.09e-5 prints 2.09e-05).
func cellMatches(docCell, csvCell string) bool {
	want := numberRE.FindAllString(docCell, -1)
	got := numberRE.FindAllString(csvCell, -1)
	if len(want) != len(got) {
		return false
	}
	for i, w := range want {
		v, err := strconv.ParseFloat(got[i], 64)
		if err != nil {
			return false
		}
		mant, exp := strings.TrimPrefix(w, "+"), ""
		if e := strings.IndexAny(mant, "eE"); e >= 0 {
			mant, exp = mant[:e], mant[e+1:]
		}
		digits := 0
		if dot := strings.IndexByte(mant, '.'); dot >= 0 {
			digits = len(mant) - dot - 1
		}
		if exp == "" {
			if strconv.FormatFloat(v, 'f', digits, 64) != mant {
				return false
			}
			continue
		}
		gotMant, gotExp, _ := strings.Cut(strconv.FormatFloat(v, 'e', digits, 64), "e")
		we, werr := strconv.Atoi(exp)
		ge, gerr := strconv.Atoi(gotExp)
		if gotMant != mant || werr != nil || gerr != nil || we != ge {
			return false
		}
	}
	return true
}

// TestCellMatches pins the document-cell checker on fixed, scientific and
// rational cells.
func TestCellMatches(t *testing.T) {
	for _, c := range []struct {
		doc, csv string
		want     bool
	}{
		{"0.5446", "0.544631", true},
		{"0.5447", "0.544631", false},
		{"2.09e-05", "2.09e-05", true},
		{"2.09e-5", "2.09e-05", true},   // unpadded document exponent
		{"2.09e-05", "2.09e-5", true},   // unpadded CSV exponent
		{"2.1e-05", "2.09e-05", true},   // mantissa rounded to the digits shown
		{"2.08e-05", "2.09e-05", false}, // wrong mantissa
		{"2.09e-04", "2.09e-05", false}, // wrong exponent
		{"2.09e-05", "0.0000209", true},
		{"-9.99e-16", "-9.99e-16", true},
		{"4/3", "4/3", true},
		{"4/3", "5/3", false},
		{"δ=4/3", "δ=4/3 π=(0.5,1)", false}, // token count differs
	} {
		if got := cellMatches(c.doc, c.csv); got != c.want {
			t.Errorf("cellMatches(%q, %q) = %v, want %v", c.doc, c.csv, got, c.want)
		}
	}
}

// codeSpanRE matches a backticked code span within one line, and
// qualifiedRE an exported package-qualified name, pkg.Name, inside one.
var (
	codeSpanRE  = regexp.MustCompile("`[^`]+`")
	qualifiedRE = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)
)

// TestDocIdentifiersExist checks that every exported pkg.Name that
// THEORY.md, README.md or EXPERIMENTS.md puts in backticks, where
// internal/pkg exists, is a top-level declaration of that package, so the
// documents cannot point at deleted or renamed code. DESIGN.md is left
// out: its history names deleted code on purpose.
func TestDocIdentifiersExist(t *testing.T) {
	decls := map[string]map[string]bool{}
	for _, doc := range []string{"THEORY.md", "README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, span := range codeSpanRE.FindAllString(line, -1) {
				for _, m := range qualifiedRE.FindAllStringSubmatch(span, -1) {
					pkg, name := m[1], m[2]
					names, ok := decls[pkg]
					if !ok {
						names = topLevelNames(t, filepath.Join("internal", pkg))
						decls[pkg] = names
					}
					if names != nil && !names[name] {
						t.Errorf("%s:%d: `%s.%s` is not declared in internal/%s", doc, i+1, pkg, name, pkg)
					}
				}
			}
		}
	}
}

// topLevelNames returns the names the non-test files in dir declare at
// the top level, or nil when dir holds no Go files. Methods count, so
// `engine.OptimizeCtx` names the Engine method.
func topLevelNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names map[string]bool
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if names == nil {
			names = map[string]bool{}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}
