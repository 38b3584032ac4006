// Package stats provides the streaming statistics used to validate the
// paper's exact formulas against Monte-Carlo simulation: Welford running
// moments and binomial (Wilson) confidence intervals for win
// probabilities.
package stats

import (
	"fmt"
	"math"
)

// Running accumulates a stream of observations with Welford's numerically
// stable online algorithm. The zero value is ready for use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Merge folds another accumulator into r (parallel reduction), using the
// Chan et al. pairwise update.
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n := r.n + o.n
	delta := o.mean - r.mean
	r.m2 += o.m2 + delta*delta*float64(r.n)*float64(o.n)/float64(n)
	r.mean += delta * float64(o.n) / float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = n
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean (0 when empty).
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// Min returns the minimum observation (0 when empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the maximum observation (0 when empty).
func (r *Running) Max() float64 { return r.max }

// Proportion is a Bernoulli success counter with confidence intervals.
// The zero value is ready for use.
type Proportion struct {
	successes int64
	trials    int64
}

// Add records one trial.
func (p *Proportion) Add(success bool) {
	p.trials++
	if success {
		p.successes++
	}
}

// AddN records a batch of trials.
func (p *Proportion) AddN(successes, trials int64) error {
	if trials < 0 || successes < 0 || successes > trials {
		return fmt.Errorf("stats: invalid batch %d/%d", successes, trials)
	}
	p.successes += successes
	p.trials += trials
	return nil
}

// Merge folds another counter into p.
func (p *Proportion) Merge(o Proportion) {
	p.successes += o.successes
	p.trials += o.trials
}

// Trials returns the number of trials.
func (p *Proportion) Trials() int64 { return p.trials }

// Successes returns the number of successes.
func (p *Proportion) Successes() int64 { return p.successes }

// Estimate returns the success fraction (0 when empty).
func (p *Proportion) Estimate() float64 {
	if p.trials == 0 {
		return 0
	}
	return float64(p.successes) / float64(p.trials)
}

// StdErr returns the binomial standard error of the estimate.
func (p *Proportion) StdErr() float64 {
	if p.trials == 0 {
		return 0
	}
	e := p.Estimate()
	return math.Sqrt(e * (1 - e) / float64(p.trials))
}

// WilsonCI returns the Wilson score confidence interval at the given
// normal quantile z (1.96 for 95%). It returns an error for non-positive z
// or an empty counter.
func (p *Proportion) WilsonCI(z float64) (lo, hi float64, err error) {
	if z <= 0 || math.IsNaN(z) {
		return 0, 0, fmt.Errorf("stats: non-positive z quantile %v", z)
	}
	if p.trials == 0 {
		return 0, 0, fmt.Errorf("stats: Wilson interval of empty counter")
	}
	n := float64(p.trials)
	phat := p.Estimate()
	z2 := z * z
	denom := 1 + z2/n
	center := (phat + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}
