package oblivious

import (
	"fmt"
	"math/big"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/poly"
)

// SymbolicSymmetric expands the Theorem 4.1 winning probability of the
// symmetric oblivious algorithm as an exact polynomial in the common
// bin-0 probability a:
//
//	P(a) = Σ_k C(n,k) φ_δ(k) (1-a)^k a^(n-k),
//
// with φ_δ(k) = F_k(δ)·F_{n-k}(δ) evaluated in exact rational arithmetic.
// The capacity must be a positive rational.
func SymbolicSymmetric(n int, capacity *big.Rat) (poly.RatPoly, error) {
	if n < 2 {
		return poly.RatPoly{}, fmt.Errorf("oblivious: need at least 2 players, got %d", n)
	}
	if capacity == nil || capacity.Sign() <= 0 {
		return poly.RatPoly{}, fmt.Errorf("oblivious: capacity must be strictly positive")
	}
	one := big.NewRat(1, 1)
	var units []*big.Rat // k unit widths: F_k is Corollary 2.6
	cdf := make([]*big.Rat, n+1)
	for k := 0; k <= n; k++ {
		v, err := dist.CDFRat(units, capacity)
		if err != nil {
			return poly.RatPoly{}, err
		}
		cdf[k] = v
		units = append(units, one)
	}
	x := poly.RatPolyX()
	oneMinusX := poly.RatPolyAffine(one, big.NewRat(-1, 1))
	total := poly.RatPoly{}
	for k := 0; k <= n; k++ {
		c, err := combin.BinomialBig(n, k)
		if err != nil {
			return poly.RatPoly{}, err
		}
		phi := new(big.Rat).Mul(cdf[k], cdf[n-k])
		coeff := new(big.Rat).SetInt(c)
		coeff.Mul(coeff, phi)
		if coeff.Sign() == 0 {
			continue
		}
		pk, err := oneMinusX.Pow(k)
		if err != nil {
			return poly.RatPoly{}, err
		}
		pnk, err := x.Pow(n - k)
		if err != nil {
			return poly.RatPoly{}, err
		}
		total = total.Add(pk.Mul(pnk).Scale(coeff))
	}
	return total, nil
}

// HalfCertificate is the outcome of CertifyHalfOptimal: a Sturm-certified
// description of the interior critical points of the symmetric oblivious
// curve.
type HalfCertificate struct {
	// Curve is the exact polynomial P(a).
	Curve poly.RatPoly
	// Derivative is dP/da, whose interior roots are the candidates.
	Derivative poly.RatPoly
	// InteriorCritical counts distinct roots of the derivative in (0, 1).
	InteriorCritical int
	// HalfIsCritical reports whether a = 1/2 is one of them (exactly).
	HalfIsCritical bool
	// HalfValue is P(1/2), exact.
	HalfValue *big.Rat
	// HalfIsMaximum reports whether P(1/2) weakly dominates P at 0, 1 and
	// every other interior critical point (checked at certified
	// enclosures refined to 2^-60).
	HalfIsMaximum bool
}

// CertifyHalfOptimal certifies Theorem 4.3 for one instance: it derives
// the exact symmetric curve P(a), isolates all interior critical points
// with Sturm sequences, and verifies that a = 1/2 is critical and maximal
// among the candidates. Degenerate instances where P is constant (δ ≥ n:
// every assignment wins) are reported with InteriorCritical = 0 and
// HalfIsMaximum = true.
func CertifyHalfOptimal(n int, capacity *big.Rat) (HalfCertificate, error) {
	curve, err := SymbolicSymmetric(n, capacity)
	if err != nil {
		return HalfCertificate{}, err
	}
	half := big.NewRat(1, 2)
	cert := HalfCertificate{
		Curve:      curve,
		Derivative: curve.Derivative(),
		HalfValue:  curve.Eval(half),
	}
	if cert.Derivative.IsZero() {
		// Constant winning probability (e.g. δ ≥ n).
		cert.HalfIsMaximum = true
		return cert, nil
	}
	zero := new(big.Rat)
	one := big.NewRat(1, 1)
	ivs, err := poly.IsolateRoots(cert.Derivative, zero, one)
	if err != nil {
		return HalfCertificate{}, err
	}
	cert.HalfIsCritical = cert.Derivative.Eval(half).Sign() == 0
	best := new(big.Rat).Set(cert.HalfValue)
	tol := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 60))
	maximal := true
	count := 0
	for _, iv := range ivs {
		refined, err := poly.RefineRoot(cert.Derivative, iv, tol)
		if err != nil {
			return HalfCertificate{}, err
		}
		// Skip boundary roots (Sturm counts (0,1], and 1 may appear).
		mid := refined.Mid()
		if mid.Sign() <= 0 || mid.Cmp(one) >= 0 {
			continue
		}
		count++
		if curve.Eval(mid).Cmp(best) > 0 {
			maximal = false
		}
	}
	cert.InteriorCritical = count
	for _, endpoint := range []*big.Rat{zero, one} {
		if curve.Eval(endpoint).Cmp(best) > 0 {
			maximal = false
		}
	}
	cert.HalfIsMaximum = maximal
	return cert, nil
}
