package harness

import (
	"fmt"
	"sort"
	"strings"
)

// Kind distinguishes figure experiments from table experiments.
type Kind int

// Experiment kinds.
const (
	KindFigure Kind = iota + 1
	KindTable
)

// Experiment is a registry entry: one regenerable table or figure.
type Experiment struct {
	// ID is the DESIGN.md experiment id (e.g. "F1", "T2").
	ID string
	// Title describes the experiment.
	Title string
	// Kind reports whether RunFigure or RunTable applies.
	Kind Kind
	// RunFigure regenerates a figure (nil for tables).
	RunFigure func(p Params) (Figure, error)
	// RunTable regenerates a table (nil for figures).
	RunTable func(p Params) (Table, error)
}

// Registry returns all experiments keyed by id.
func Registry() map[string]Experiment {
	return map[string]Experiment{
		"F1": {
			ID: "F1", Kind: KindFigure,
			Title:     "Non-oblivious winning probability vs threshold, n=3,4,5",
			RunFigure: Figure1,
		},
		"F2": {
			ID: "F2", Kind: KindFigure,
			Title:     "Oblivious winning probability vs coin bias, n=3,4,5",
			RunFigure: Figure2,
		},
		"F3": {
			ID: "F3", Kind: KindFigure,
			Title: "Algorithm classes vs capacity δ at n=4 (extension)",
			RunFigure: func(p Params) (Figure, error) {
				return Figure3(4, p)
			},
		},
		"T1": {
			ID: "T1", Kind: KindTable,
			Title: "Optimal oblivious algorithms per n (Theorem 4.3)",
			RunTable: func(p Params) (Table, error) {
				return TableOblivious([]int{2, 3, 4, 5, 6, 7, 8, 9, 10}, p)
			},
		},
		"T2": {
			ID: "T2", Kind: KindTable,
			Title:    "Case n=3, δ=1 (Section 5.2.1)",
			RunTable: func(Params) (Table, error) { return TableCaseN3() },
		},
		"T3": {
			ID: "T3", Kind: KindTable,
			Title:    "Case n=4, δ=4/3 (Section 5.2.2)",
			RunTable: func(Params) (Table, error) { return TableCaseN4() },
		},
		"T4": {
			ID: "T4", Kind: KindTable,
			Title: "Knowledge/uniformity trade-off",
			RunTable: func(p Params) (Table, error) {
				return TableTradeoff([]int{2, 3, 4, 5, 6, 7, 8}, p)
			},
		},
		"T5": {
			ID: "T5", Kind: KindTable,
			Title:    "Value of information: PY91 communication ladder (extension)",
			RunTable: TableValueOfInformation,
		},
		"T6": {
			ID: "T6", Kind: KindTable,
			Title: "Beyond single thresholds: two-interval rules (extension)",
			RunTable: func(Params) (Table, error) {
				return TableBeyondThresholds()
			},
		},
		"T7": {
			ID: "T7", Kind: KindTable,
			Title: "Scaling with n at δ = n/3 (extension)",
			RunTable: func(p Params) (Table, error) {
				return TableAsymptotics([]int{2, 4, 6, 8, 10, 12, 16, 20, 24}, p)
			},
		},
		"T8": {
			ID: "T8", Kind: KindTable,
			Title: "Value of one broadcast bit (extension)",
			RunTable: func(Params) (Table, error) {
				return TableOneBitValue([]int{2, 3, 4, 5, 6})
			},
		},
		"T9": {
			ID: "T9", Kind: KindTable,
			Title:    "Non-uniform input distributions (extension)",
			RunTable: func(Params) (Table, error) { return TableNonUniformInputs() },
		},
		"T10": {
			ID: "T10", Kind: KindTable,
			Title:    "Heterogeneous input ranges x_i ~ U[0, π_i] (extension)",
			RunTable: TableHeterogeneous,
		},
		"T11": {
			ID: "T11", Kind: KindTable,
			Title:    "Departure of the optimal a-vector from the symmetric ray (extension)",
			RunTable: TableVectorOptimum,
		},
		"V1": {
			ID: "V1", Kind: KindTable,
			Title:    "Exact formulas vs Monte-Carlo simulation",
			RunTable: TableValidation,
		},
	}
}

// aliases maps mnemonic experiment names (as accepted by the CLIs, e.g.
// `nocomm table oblivious`) onto registry ids.
var aliases = map[string]string{
	"thresholds":           "F1",
	"coins":                "F2",
	"crossover":            "F3",
	"oblivious":            "T1",
	"case-n3":              "T2",
	"case-n4":              "T3",
	"tradeoff":             "T4",
	"value-of-information": "T5",
	"beyond":               "T6",
	"asymptotics":          "T7",
	"one-bit":              "T8",
	"non-uniform":          "T9",
	"hetero":               "T10",
	"vector-optimum":       "T11",
	"validation":           "V1",
}

// IDs returns the registry keys in sorted order.
func IDs() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for id := range reg {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Lookup fetches one experiment by id or mnemonic alias,
// case-insensitively ("T1", "t1" and "oblivious" all resolve to T1).
func Lookup(id string) (Experiment, error) {
	key := strings.ToUpper(strings.TrimSpace(id))
	if canonical, ok := aliases[strings.ToLower(strings.TrimSpace(id))]; ok {
		key = canonical
	}
	e, ok := Registry()[key]
	if !ok {
		return Experiment{}, fmt.Errorf("harness: unknown experiment %q (known: %v)", id, IDs())
	}
	return e, nil
}
