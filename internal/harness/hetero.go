package harness

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/problem"
)

// DefaultHeteroPi is the heterogeneous instance T10 evaluates when
// Params.Pi is empty: three players with ranges (1/2, 1, 1) — the
// smallest departure from the paper's homogeneous n=3, δ=1 case study.
var DefaultHeteroPi = []float64{0.5, 1, 1}

// TableHeterogeneous builds T10: winning probabilities of the paper's
// algorithm classes on a heterogeneous instance x_i ~ U[0, π_i], each
// evaluated by the exact subset-sum generalization of Theorems 4.1/5.1
// AND re-estimated by Monte-Carlo, with the deviation in standard
// errors. The π vector comes from Params.Pi (DefaultHeteroPi when
// empty), δ from the paper's n/3 scaling.
func TableHeterogeneous(p Params) (Table, error) {
	pi := p.Pi
	if len(pi) == 0 {
		pi = DefaultHeteroPi
	}
	n := len(pi)
	inst, err := problem.NewPi(n, float64(n)/3, pi)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "T10",
		Title: "Heterogeneous input ranges (extension)",
		Columns: []string{
			"algorithm", "exact", "simulated", "std err", "|z|",
		},
		Notes: []string{
			fmt.Sprintf("instance: %s (x_i ~ U[0, π_i]); exact values via the Lemma 2.4/2.7 subset sums", inst),
		},
	}
	rules := []engine.Rule{
		engine.SymmetricOblivious{A: 0.5},
		engine.DeterministicSplit{K: (n + 1) / 2},
		engine.SymmetricThreshold{Beta: 0.5},
		engine.SymmetricThreshold{Beta: 2.0 / 3.0},
	}
	eng := p.engine()
	for _, r := range rules {
		exact, err := eng.Evaluate(inst, r, engine.Exact)
		if err != nil {
			return Table{}, err
		}
		mc, err := eng.EvaluateWithCtx(context.Background(), inst, r, engine.MonteCarlo, p.Sim)
		if err != nil {
			return Table{}, err
		}
		z := math.Inf(1)
		if mc.StdErr > 0 {
			z = math.Abs(mc.P-exact.P) / mc.StdErr
		}
		t.Rows = append(t.Rows, []string{
			r.Name(),
			fmt.Sprintf("%.6f", exact.P),
			fmt.Sprintf("%.6f", mc.P),
			fmt.Sprintf("%.6f", mc.StdErr),
			fmt.Sprintf("%.2f", z),
		})
	}
	return t, nil
}
