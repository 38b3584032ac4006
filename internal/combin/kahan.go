package combin

// Accumulator is a Neumaier-compensated floating-point accumulator. It keeps
// a running correction term so that long alternating sums — such as the
// inclusion-exclusion series in Proposition 2.2 and Corollary 2.6 of the
// paper — lose far less precision than naive summation.
//
// The zero value is an accumulator with sum 0 and is ready for use.
type Accumulator struct {
	sum float64
	c   float64 // running compensation for lost low-order bits
}

// Add incorporates v into the running sum.
func (a *Accumulator) Add(v float64) {
	t := a.sum + v
	if abs(a.sum) >= abs(v) {
		a.c += (a.sum - t) + v
	} else {
		a.c += (v - t) + a.sum
	}
	a.sum = t
}

// Sum returns the compensated running total.
func (a *Accumulator) Sum() float64 { return a.sum + a.c }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
