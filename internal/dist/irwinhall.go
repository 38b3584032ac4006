package dist

import (
	"fmt"
	"math"
	"slices"
)

// IrwinHallLadder tabulates the Irwin-Hall CDF F_m (Corollary 2.6: the
// distribution of the sum of m independent U[0,1] variables) at the unit
// shifts x, x−1, x−2, … of one point x, one order at a time. Step raises
// the order by the B-spline recurrence
//
//	F_j(y) = (y·F_{j−1}(y) + (j−y)·F_{j−1}(y−1)) / j,
//
// which for 0 ≤ y ≤ j is a convex combination of two CDF values, so
// nothing cancels and every order keeps full float64 accuracy; the
// alternating binomial series of Corollary 2.6 sums terms far larger than
// its value and loses the digits they carry. Only shifts in [0, maxM) are
// stored: F_j(y) = 1 for every y ≥ maxM ≥ j and 0 for y < 0. The order
// m = 0 is the empty sum, F_0(y) = 1 for y ≥ 0.
//
// A ladder is ready after Reset, which also re-targets a used ladder and
// reuses its storage.
type IrwinHallLadder struct {
	m, maxM int
	frac    float64   // x − ⌊x⌋
	lo      int       // shifts i < lo have x − i ≥ maxM
	f       []float64 // f[k] = F_m(frac + top − k) for shift lo+k, then a 0 sentinel
}

// Reset puts the ladder at order 0 for the point x (not NaN), ready to
// step up to order maxM.
func (l *IrwinHallLadder) Reset(x float64, maxM int) {
	l.m, l.maxM = 0, max(maxM, 0)
	l.f, l.lo, l.frac = l.f[:0], 0, 0
	if x < 0 {
		return // every shift is below the support
	}
	fl := math.Floor(x)
	if !math.IsInf(x, 1) {
		l.frac = x - fl
	}
	top := min(fl, float64(l.maxM-1))
	l.lo = int(min(fl-top, 1<<62))
	n := int(top) + 1 // stored shifts, then the 0 sentinel
	l.f = slices.Grow(l.f, n+1)[:n+1]
	for k := range n {
		l.f[k] = 1
	}
	l.f[n] = 0
}

// Order returns the current order m.
func (l *IrwinHallLadder) Order() int { return l.m }

// Step raises the order by one. It panics past the maxM given to Reset.
func (l *IrwinHallLadder) Step() {
	if l.m == l.maxM {
		panic(fmt.Sprintf("dist: Irwin-Hall ladder stepped past its maximum order %d", l.maxM))
	}
	l.m++
	j := float64(l.m)
	top := len(l.f) - 2
	// Shifts y ≥ j stay at 1; the rest update in place in increasing k,
	// which reads f[k+1] (y − 1) before it is overwritten.
	for k := max(0, top-l.m+1); k <= top; k++ {
		y := l.frac + float64(top-k)
		l.f[k] = (y*l.f[k] + (j-y)*l.f[k+1]) / j
	}
}

// CDF returns F_m(x − i) at the current order m, for a shift i ≥ 0.
func (l *IrwinHallLadder) CDF(i int) float64 {
	switch k := i - l.lo; {
	case k < 0:
		return 1
	case k >= len(l.f)-1:
		return 0 // x − i < 0
	default:
		return l.f[k]
	}
}

// IrwinHallCDF evaluates one value F_m(t) by stepping a ladder at t to
// order m. It returns an error for negative m or NaN t. Loops over orders
// or over points reuse one IrwinHallLadder instead.
func IrwinHallCDF(m int, t float64) (float64, error) {
	if m < 0 {
		return 0, fmt.Errorf("dist: Irwin-Hall order %d must be non-negative", m)
	}
	if math.IsNaN(t) {
		return 0, fmt.Errorf("dist: Irwin-Hall CDF at NaN")
	}
	var l IrwinHallLadder
	l.Reset(t, m)
	for range m {
		l.Step()
	}
	return l.CDF(0), nil
}
