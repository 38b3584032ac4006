package engine

import (
	"sync"

	"repro/internal/oblivious"
)

// obliviousAlphaRule is implemented by the oblivious rules that can expose
// their full bin-choice vector, letting sweeps route them through a
// reusable per-worker evaluator instead of rebuilding the subset-CDF
// table per point.
type obliviousAlphaRule interface {
	alphaVector(n int) []float64
}

func (r SymmetricOblivious) alphaVector(n int) []float64 { return repeated(r.A, n) }

func (r Oblivious) alphaVector(int) []float64 { return r.Alphas }

// sweepTables is one sweep worker's reusable oblivious evaluator, passed
// to compute()'s Exact branch. The evaluator is bit-identical to the
// one-shot WinningProbabilityPi, so its results land in the
// memoization cache under the normal keys. The mutex serializes the owner
// worker against abandoned evaluations still running in the background
// after their caller's deadline struck.
type sweepTables struct {
	mu sync.Mutex
	ev *oblivious.Evaluator
}

// evaluate serves one α-vector from the tables.
func (t *sweepTables) evaluate(alphas []float64) (float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ev.Evaluate(alphas)
}

// sweepTablesFactory decides whether a sweep qualifies for per-worker
// reusable evaluators — an Exact/Auto backend, every point on one shared
// heterogeneous instance within the evaluator's range, every rule an
// oblivious rule exposing its α-vector (the 1-D α sweeps and their
// chunked/streamed variants) — and returns a constructor for per-worker
// tables, or nil when the sweep should take the one-shot path.
func sweepTablesFactory(points []Point, backend Backend) func() *sweepTables {
	if backend != Exact && backend != Auto {
		return nil
	}
	if len(points) < 2 {
		return nil
	}
	inst := points[0].Instance
	if !inst.Heterogeneous() || inst.N < 2 || inst.N > oblivious.MaxNHetero {
		return nil
	}
	key := inst.Key()
	for _, pt := range points {
		if _, ok := pt.Rule.(obliviousAlphaRule); !ok {
			return nil
		}
		if pt.Instance.Key() != key {
			return nil
		}
	}
	return func() *sweepTables {
		ev, err := oblivious.NewEvaluator(inst.Pi, inst.Delta, 1)
		if err != nil {
			// Instance rejected by the evaluator (e.g. a capacity the
			// one-shot path will reject identically): let the points fail
			// through the normal path.
			return nil
		}
		return &sweepTables{ev: ev}
	}
}
