package repro

import (
	"encoding/csv"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// numberRE matches the numeric tokens of a table cell; a rational such as
// 4/3 yields its numerator and denominator.
var numberRE = regexp.MustCompile(`[+-]?\d+(\.\d+)?`)

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
// CSV cell, each rounded to the document's precision.
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
		digits := 0
		if dot := strings.IndexByte(w, '.'); dot >= 0 {
			digits = len(w) - dot - 1
		}
		if strconv.FormatFloat(v, 'f', digits, 64) != strings.TrimPrefix(w, "+") {
			return false
		}
	}
	return true
}
