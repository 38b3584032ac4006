package dist

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/combin"
)

// MaxIrwinHallN bounds the Irwin-Hall order for which the alternating
// binomial series of Corollary 2.6 remains numerically trustworthy in
// float64 (catastrophic cancellation sets in around m ≈ 25-30; the exact
// rational path has no such limit within MaxIrwinHallRatN).
const MaxIrwinHallN = 25

// MaxIrwinHallRatN bounds the exact rational Irwin-Hall order.
const MaxIrwinHallRatN = 200

// IrwinHall is the distribution of the sum of m independent U[0,1] random
// variables (Corollary 2.6 of the paper). The degenerate case m = 0 — the
// empty sum, identically zero — is allowed because the winning-probability
// formulas sum over decision vectors that may leave a bin empty.
type IrwinHall struct {
	m int
}

// NewIrwinHall constructs the Irwin-Hall distribution of order m ≥ 0.
func NewIrwinHall(m int) (*IrwinHall, error) {
	if m < 0 {
		return nil, fmt.Errorf("dist: Irwin-Hall order %d must be non-negative", m)
	}
	if m > MaxIrwinHallN {
		return nil, fmt.Errorf("dist: float64 Irwin-Hall limited to order %d, got %d (use CDFRat)", MaxIrwinHallN, m)
	}
	return &IrwinHall{m: m}, nil
}

// N returns the order m.
func (ih *IrwinHall) N() int { return ih.m }

// CDF evaluates Corollary 2.6,
//
//	F_m(t) = (1/m!) Σ_{0 ≤ i ≤ m, i < t} (-1)^i C(m, i) (t - i)^m,
//
// clamped to [0, 1]. For m = 0 the empty sum is identically zero, so
// F_0(t) = 1 for t ≥ 0 and 0 otherwise.
func (ih *IrwinHall) CDF(t float64) float64 {
	if ih.m == 0 {
		if t >= 0 {
			return 1
		}
		return 0
	}
	if t <= 0 {
		return 0
	}
	if t >= float64(ih.m) {
		return 1
	}
	m := ih.m
	sum, err := combin.SignedBinomialSum(m,
		func(i int) bool { return float64(i) < t },
		func(i int) float64 { return math.Pow(t-float64(i), float64(m)) })
	if err != nil {
		// Unreachable: guards and terms are non-nil and m is validated.
		return math.NaN()
	}
	f, err := combin.FactorialFloat(m)
	if err != nil {
		return math.NaN()
	}
	return clamp01(sum / f)
}

// IrwinHallCDF is a convenience wrapper evaluating F_m(t) without
// constructing a distribution value. It returns an error for invalid m.
func IrwinHallCDF(m int, t float64) (float64, error) {
	ih, err := NewIrwinHall(m)
	if err != nil {
		return 0, err
	}
	return ih.CDF(t), nil
}

// IrwinHallCDFRat evaluates Corollary 2.6 exactly at a rational point.
// Orders up to MaxIrwinHallRatN are supported; m = 0 follows the same
// point-mass convention as CDF.
func IrwinHallCDFRat(m int, t *big.Rat) (*big.Rat, error) {
	if m < 0 {
		return nil, fmt.Errorf("dist: Irwin-Hall order %d must be non-negative", m)
	}
	if m > MaxIrwinHallRatN {
		return nil, fmt.Errorf("dist: exact Irwin-Hall limited to order %d, got %d", MaxIrwinHallRatN, m)
	}
	if t == nil {
		return nil, fmt.Errorf("dist: nil threshold")
	}
	if m == 0 {
		if t.Sign() >= 0 {
			return big.NewRat(1, 1), nil
		}
		return new(big.Rat), nil
	}
	if t.Sign() <= 0 {
		return new(big.Rat), nil
	}
	if t.Cmp(new(big.Rat).SetInt64(int64(m))) >= 0 {
		return big.NewRat(1, 1), nil
	}
	sum, err := combin.SignedBinomialSumRat(m,
		func(i int) bool {
			return new(big.Rat).SetInt64(int64(i)).Cmp(t) < 0
		},
		func(i int) *big.Rat {
			d := new(big.Rat).Sub(t, new(big.Rat).SetInt64(int64(i)))
			return ratPow(d, m)
		})
	if err != nil {
		return nil, err
	}
	invFact, err := combin.InvFactorialRat(m)
	if err != nil {
		return nil, err
	}
	return sum.Mul(sum, invFact), nil
}

// NormalApproxError reports how far the Irwin-Hall distribution of order m
// is from its moment-matched normal approximation N(m/2, m/12), as the
// Kolmogorov distance sup_t |F_m(t) - Φ((t-m/2)/√(m/12))| evaluated on a
// uniform grid of the support. The CLT makes this shrink like O(1/√m),
// which quantifies when the paper's exact formulas actually matter: for
// the small n of the paper's instances the error is several percent.
func NormalApproxError(m int, gridPoints int) (float64, error) {
	if gridPoints < 2 {
		return 0, fmt.Errorf("dist: need at least 2 grid points, got %d", gridPoints)
	}
	ih, err := NewIrwinHall(m)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return 0, fmt.Errorf("dist: normal approximation undefined for m = 0")
	}
	mean := float64(m) / 2
	sd := math.Sqrt(float64(m) / 12)
	var worst float64
	for i := 0; i < gridPoints; i++ {
		t := float64(m) * float64(i) / float64(gridPoints-1)
		exact := ih.CDF(t)
		approx := stdNormalCDF((t - mean) / sd)
		if d := math.Abs(exact - approx); d > worst {
			worst = d
		}
	}
	return worst, nil
}

// stdNormalCDF is Φ, the standard normal CDF.
func stdNormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
