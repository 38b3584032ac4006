package harness

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// RunOutput is the artifact produced by an observed experiment run:
// exactly one of Figure or Table is non-nil, matching the experiment's
// Kind.
type RunOutput struct {
	Figure *Figure
	Table  *Table
}

// Run regenerates the experiment under observability: the whole run is
// wrapped in exactly one root span named experiment.<ID>, its wall time is
// recorded in the exp.<id>.wall_seconds gauge, the experiment counter is
// bumped, and any embedded simulation inherits the observer through
// p.Sim.Obs. When p.Engine is nil the run gets an engine wired to the same
// observer, so cache hit/miss counters surface in the metrics snapshot; a
// nil observer degrades to the plain RunFigure/RunTable behavior.
func (e Experiment) Run(o *obs.Observer, p Params) (RunOutput, error) {
	root := o.StartSpan("experiment." + e.ID)
	start := time.Now()
	defer func() {
		root.End()
		o.Gauge(fmt.Sprintf("exp.%s.wall_seconds", e.ID)).Set(time.Since(start).Seconds())
	}()
	o.Counter("harness.experiments").Inc()
	p.Sim.Obs = o
	if p.Engine == nil {
		p.Engine = engine.New(engine.Config{Sim: p.Sim, Obs: o})
	}
	switch e.Kind {
	case KindFigure:
		if e.RunFigure == nil {
			return RunOutput{}, fmt.Errorf("harness: experiment %s has no figure runner", e.ID)
		}
		fig, err := e.RunFigure(p)
		if err != nil {
			o.EmitError("experiment."+e.ID, err)
			return RunOutput{}, err
		}
		return RunOutput{Figure: &fig}, nil
	case KindTable:
		if e.RunTable == nil {
			return RunOutput{}, fmt.Errorf("harness: experiment %s has no table runner", e.ID)
		}
		tab, err := e.RunTable(p)
		if err != nil {
			o.EmitError("experiment."+e.ID, err)
			return RunOutput{}, err
		}
		return RunOutput{Table: &tab}, nil
	default:
		return RunOutput{}, fmt.Errorf("harness: experiment %s has unknown kind %d", e.ID, e.Kind)
	}
}
