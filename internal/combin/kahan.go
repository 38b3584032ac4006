package combin

// Accumulator is a Neumaier-compensated floating-point accumulator. It keeps
// a running correction term so that long sums of mixed sign — such as the
// inclusion-exclusion series of Proposition 2.2 and Lemma 2.4 — lose far
// less precision than naive summation. Compensation removes the rounding of
// the additions, not the cancellation: an alternating series whose terms
// dwarf its sum still loses the digits the terms' own rounding carries,
// which is why the Irwin-Hall CDF steps a convex recurrence instead
// (dist.IrwinHallLadder).
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
