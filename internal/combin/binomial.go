package combin

import (
	"fmt"
	"math"
	"math/big"
)

// Binomial returns the binomial coefficient C(n, k) as an int64.
// It returns an error if n or k is negative, or if the result would
// overflow int64. C(n, k) with k > n is 0 by convention.
func Binomial(n, k int) (int64, error) {
	if n < 0 || k < 0 {
		return 0, fmt.Errorf("combin: binomial with negative argument C(%d, %d)", n, k)
	}
	if k > n {
		return 0, nil
	}
	if k > n-k {
		k = n - k
	}
	// Multiplicative formula with overflow checks: result *= (n-k+i) / i.
	// The division is always exact at each step because the running product
	// of i consecutive integers is divisible by i!.
	var result int64 = 1
	for i := 1; i <= k; i++ {
		f := int64(n - k + i)
		hi, lo := bits64Mul(result, f)
		if hi != 0 {
			return 0, fmt.Errorf("combin: C(%d, %d) overflows int64", n, k)
		}
		result = lo / int64(i)
	}
	return result, nil
}

// bits64Mul multiplies two non-negative int64 values and reports whether the
// product fits: hi is non-zero exactly when the product overflows.
func bits64Mul(a, b int64) (hi, lo int64) {
	if a == 0 || b == 0 {
		return 0, 0
	}
	p := a * b
	if p/b != a || p < 0 {
		return 1, p
	}
	return 0, p
}

// BinomialBig returns the binomial coefficient C(n, k) as an exact big
// integer. It returns an error if n or k is negative. C(n, k) with k > n
// is 0 by convention.
func BinomialBig(n, k int) (*big.Int, error) {
	if n < 0 || k < 0 {
		return nil, fmt.Errorf("combin: binomial with negative argument C(%d, %d)", n, k)
	}
	if k > n {
		return big.NewInt(0), nil
	}
	return new(big.Int).Binomial(int64(n), int64(k)), nil
}

// BinomialFloat returns C(n, k) as a float64, using log-gamma for large
// arguments so that it degrades to +Inf rather than corrupting intermediate
// arithmetic. For results below 2^53 the value is exact.
func BinomialFloat(n, k int) (float64, error) {
	if n < 0 || k < 0 {
		return 0, fmt.Errorf("combin: binomial with negative argument C(%d, %d)", n, k)
	}
	if k > n {
		return 0, nil
	}
	if v, err := Binomial(n, k); err == nil {
		return float64(v), nil
	}
	ln, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return math.Round(math.Exp(ln - lk - lnk)), nil
}

// PascalRow returns row n of Pascal's triangle, that is, the n+1 coefficients
// C(n, 0) ... C(n, n), as exact float64 values. It returns an error when any
// entry exceeds exact float64 range via int64 overflow (n > 61 can overflow;
// entries are computed pairwise from the previous row in float64, which stays
// exact up to n = 56).
func PascalRow(n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("combin: Pascal row of negative %d", n)
	}
	row := make([]float64, n+1)
	row[0] = 1
	for i := 1; i <= n; i++ {
		// Build in place right-to-left.
		row[i] = 1
		for j := i - 1; j > 0; j-- {
			row[j] += row[j-1]
		}
	}
	for _, v := range row {
		if v > 1<<53 {
			return nil, fmt.Errorf("combin: Pascal row %d exceeds exact float64 range", n)
		}
	}
	return row, nil
}

// Multinomial returns the multinomial coefficient (Σks)! / Π ks[i]! as an
// int64, or an error on negative parts or overflow.
func Multinomial(ks ...int) (int64, error) {
	n := 0
	for _, k := range ks {
		if k < 0 {
			return 0, fmt.Errorf("combin: multinomial with negative part %d", k)
		}
		n += k
	}
	var result int64 = 1
	rem := n
	for _, k := range ks {
		c, err := Binomial(rem, k)
		if err != nil {
			return 0, err
		}
		hi, lo := bits64Mul(result, c)
		if hi != 0 {
			return 0, fmt.Errorf("combin: multinomial %v overflows int64", ks)
		}
		result = lo
		rem -= k
	}
	return result, nil
}
