package harness

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"strings"

	"repro/internal/engine"
	"repro/internal/nonoblivious"
	"repro/internal/problem"
)

// VectorOptimumRow is one instance's entry in the T11 chart: the optimal
// per-player threshold vector a* against the best symmetric threshold β*,
// with the departure from the symmetric ray and (for n ≤
// nonoblivious.MaxNExact) a big.Rat certificate on the vector value.
type VectorOptimumRow struct {
	// Instance is the problem evaluated.
	Instance problem.Instance
	// A is the optimal threshold vector a*.
	A []float64
	// PVector is P(a*), the vector family's optimum.
	PVector float64
	// Beta is the best symmetric threshold β*.
	Beta float64
	// PSymmetric is P(β*, …, β*), the symmetric ray's optimum.
	PSymmetric float64
	// Departure is max_i |a*_i − β*|: how far the optimum leaves the ray.
	Departure float64
	// Gain is PVector − PSymmetric (≥ 0 up to search tolerance).
	Gain float64
	// CertErr is |PVector − exact(a*)| against the big.Rat oracle and
	// CertBound the certified float64 round-off bound; Certified reports
	// whether the oracle ran (n ≤ nonoblivious.MaxNExact).
	CertErr   float64
	CertBound float64
	Certified bool
}

// vectorOptimumInstances is the T11 instance sweep: the homogeneous
// case-study instance (where the optimum must stay on the symmetric
// ray), then heterogeneous π vectors and a capacity shift that pull the
// optimal a-vector off the ray.
func vectorOptimumInstances() ([]problem.Instance, error) {
	specs := []struct {
		n     int
		delta float64
		pi    []float64
	}{
		{3, 1, nil},
		{3, 1, []float64{0.5, 1, 1}},
		{3, 2.0 / 3.0, []float64{0.5, 0.75, 1}},
		{4, 4.0 / 3.0, []float64{0.5, 1, 1, 1}},
	}
	out := make([]problem.Instance, 0, len(specs))
	for _, s := range specs {
		var inst problem.Instance
		var err error
		if s.pi != nil {
			inst, err = problem.NewPi(s.n, s.delta, s.pi)
		} else {
			inst, err = problem.New(s.n, s.delta)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}

// VectorOptimumRows computes the T11 chart rows on the given instances:
// both searches route through the params' (shared, memoizing) engine
// with the exact backend, so the symmetric search rides the vector
// search's cache. For n ≤ nonoblivious.MaxNExact the vector value is
// re-evaluated by the big.Rat oracle at the float-rounded point and the
// difference checked against the certified round-off bound.
func VectorOptimumRows(p Params, instances []problem.Instance) ([]VectorOptimumRow, error) {
	eng := p.engine()
	rows := make([]VectorOptimumRow, 0, len(instances))
	for _, inst := range instances {
		vec, err := eng.OptimizeCtx(context.Background(), inst, engine.ThresholdVectorFamily{}, engine.OptimizeOptions{Backend: engine.Exact})
		if err != nil {
			return nil, fmt.Errorf("harness: vector optimum on %s: %w", inst, err)
		}
		sym, err := eng.OptimizeCtx(context.Background(), inst, engine.ThresholdBetaFamily{}, engine.OptimizeOptions{Backend: engine.Exact})
		if err != nil {
			return nil, fmt.Errorf("harness: symmetric optimum on %s: %w", inst, err)
		}
		row := VectorOptimumRow{
			Instance:   inst,
			A:          vec.Params,
			PVector:    vec.Value,
			Beta:       sym.Params[0],
			PSymmetric: sym.Value,
			Gain:       vec.Value - sym.Value,
		}
		for _, a := range vec.Params {
			row.Departure = math.Max(row.Departure, math.Abs(a-row.Beta))
		}
		if inst.N <= nonoblivious.MaxNExact {
			exact, bound, err := certifyVector(inst, vec.Params)
			if err != nil {
				return nil, fmt.Errorf("harness: certifying %s: %w", inst, err)
			}
			row.CertErr = math.Abs(vec.Value - exact)
			row.CertBound = bound
			row.Certified = true
			if row.CertErr > bound {
				return nil, fmt.Errorf("harness: %s: |P* − exact| = %g exceeds certified bound %g", inst, row.CertErr, bound)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// certifyVector re-evaluates the threshold vector with the big.Rat
// oracle at exactly the float-rounded point (SetFloat64 is exact, so no
// snapping is introduced) and returns the oracle value plus the
// certified float64 round-off bound.
func certifyVector(inst problem.Instance, a []float64) (exact, bound float64, err error) {
	aRat := make([]*big.Rat, len(a))
	for i, v := range a {
		aRat[i] = new(big.Rat).SetFloat64(v)
	}
	piMin := 1.0
	piRat := make([]*big.Rat, inst.N)
	for i := range piRat {
		piRat[i] = big.NewRat(1, 1)
		if inst.Pi != nil {
			piRat[i] = new(big.Rat).SetFloat64(inst.Pi[i])
			piMin = math.Min(piMin, inst.Pi[i])
		}
	}
	p, err := nonoblivious.WinningProbabilityPiRat(aRat, piRat, new(big.Rat).SetFloat64(inst.Delta))
	if err != nil {
		return 0, 0, err
	}
	exact, _ = p.Float64()
	return exact, nonoblivious.ExactErrorBound(inst.N, inst.Delta, piMin), nil
}

// TableVectorOptimum builds T11: where the optimal threshold vector
// leaves the symmetric ray. Each row pits the full a-vector optimum
// against the best symmetric threshold on one instance; the homogeneous
// case study stays on the ray (departure ≈ 0, the sanity anchor) while
// heterogeneous π vectors pull the optimum off it by amounts far above
// the certified numerical error, so the departures are provably real.
func TableVectorOptimum(p Params) (Table, error) {
	instances, err := vectorOptimumInstances()
	if err != nil {
		return Table{}, err
	}
	rows, err := VectorOptimumRows(p, instances)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "T11",
		Title: "Departure of the optimal a-vector from the symmetric ray (extension)",
		Columns: []string{
			"instance", "a*", "P*(a*)", "β*", "P*(β)", "departure", "gain", "cert",
		},
		Notes: []string{
			"departure = max_i |a*_i − β*|; gain = P*(a*) − P*(β)",
			fmt.Sprintf("cert: |P*(a*) − big.Rat oracle at a*| ≤ certified float64 bound (n ≤ %d)", nonoblivious.MaxNExact),
		},
	}
	for _, r := range rows {
		cert := "—"
		if r.Certified {
			cert = fmt.Sprintf("%.1e ≤ %.1e", r.CertErr, r.CertBound)
		}
		av := make([]string, len(r.A))
		for i, a := range r.A {
			av[i] = fmt.Sprintf("%.4f", a)
		}
		t.Rows = append(t.Rows, []string{
			r.Instance.String(),
			"(" + strings.Join(av, ", ") + ")",
			fmt.Sprintf("%.6f", r.PVector),
			fmt.Sprintf("%.6f", r.Beta),
			fmt.Sprintf("%.6f", r.PSymmetric),
			fmt.Sprintf("%.4f", r.Departure),
			fmt.Sprintf("%.2e", r.Gain),
			cert,
		})
	}
	return t, nil
}
