package combin

import (
	"fmt"
	"math"
	"math/big"
)

// MaxFactorial64 is the largest n for which n! fits in an int64.
const MaxFactorial64 = 20

// factorialTable caches 0! through 20!, the full range representable in int64.
var factorialTable = func() [MaxFactorial64 + 1]int64 {
	var t [MaxFactorial64 + 1]int64
	t[0] = 1
	for i := 1; i <= MaxFactorial64; i++ {
		t[i] = t[i-1] * int64(i)
	}
	return t
}()

// Factorial returns n! as an int64.
// It returns an error if n is negative or if n! overflows int64 (n > 20).
func Factorial(n int) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("combin: factorial of negative %d", n)
	}
	if n > MaxFactorial64 {
		return 0, fmt.Errorf("combin: %d! overflows int64 (max n is %d)", n, MaxFactorial64)
	}
	return factorialTable[n], nil
}

// FactorialBig returns n! as an exact big integer.
// It returns an error if n is negative.
func FactorialBig(n int) (*big.Int, error) {
	if n < 0 {
		return nil, fmt.Errorf("combin: factorial of negative %d", n)
	}
	return new(big.Int).MulRange(1, int64(n)), nil
}

// FactorialFloat returns n! as a float64, computed through the log-gamma
// function so that it degrades gracefully (to +Inf) instead of overflowing
// intermediate arithmetic. For n <= 20 the value is exact.
func FactorialFloat(n int) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("combin: factorial of negative %d", n)
	}
	if n <= MaxFactorial64 {
		return float64(factorialTable[n]), nil
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return math.Exp(lg), nil
}
