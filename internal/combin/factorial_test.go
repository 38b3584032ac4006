package combin

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestFactorialSmallValues(t *testing.T) {
	want := []int64{1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800}
	for n, w := range want {
		got, err := Factorial(n)
		if err != nil {
			t.Fatalf("Factorial(%d): unexpected error: %v", n, err)
		}
		if got != w {
			t.Errorf("Factorial(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestFactorialMaxValue(t *testing.T) {
	got, err := Factorial(20)
	if err != nil {
		t.Fatalf("Factorial(20): %v", err)
	}
	const want = 2432902008176640000
	if got != want {
		t.Errorf("Factorial(20) = %d, want %d", got, want)
	}
}

func TestFactorialNegative(t *testing.T) {
	if _, err := Factorial(-1); err == nil {
		t.Error("Factorial(-1): expected error, got nil")
	}
}

func TestFactorialOverflow(t *testing.T) {
	if _, err := Factorial(21); err == nil {
		t.Error("Factorial(21): expected overflow error, got nil")
	}
}

func TestFactorialBigMatchesInt64(t *testing.T) {
	for n := 0; n <= MaxFactorial64; n++ {
		b, err := FactorialBig(n)
		if err != nil {
			t.Fatalf("FactorialBig(%d): %v", n, err)
		}
		if !b.IsInt64() || b.Int64() != factorial(t, n) {
			t.Errorf("FactorialBig(%d) = %v, want %d", n, b, factorial(t, n))
		}
	}
}

func TestFactorialBigRecurrence(t *testing.T) {
	prev := big.NewInt(1)
	for n := 1; n <= 60; n++ {
		cur, err := FactorialBig(n)
		if err != nil {
			t.Fatalf("FactorialBig(%d): %v", n, err)
		}
		want := new(big.Int).Mul(prev, big.NewInt(int64(n)))
		if cur.Cmp(want) != 0 {
			t.Fatalf("FactorialBig(%d) = %v, want n*(n-1)! = %v", n, cur, want)
		}
		prev = cur
	}
}

func TestFactorialBigNegative(t *testing.T) {
	if _, err := FactorialBig(-3); err == nil {
		t.Error("FactorialBig(-3): expected error, got nil")
	}
}

func TestFactorialFloatExactRange(t *testing.T) {
	for n := 0; n <= MaxFactorial64; n++ {
		got, err := FactorialFloat(n)
		if err != nil {
			t.Fatalf("FactorialFloat(%d): %v", n, err)
		}
		if got != float64(factorial(t, n)) {
			t.Errorf("FactorialFloat(%d) = %g, want %d exactly", n, got, factorial(t, n))
		}
	}
}

func TestFactorialFloatLarge(t *testing.T) {
	got, err := FactorialFloat(25)
	if err != nil {
		t.Fatalf("FactorialFloat(25): %v", err)
	}
	want, _ := new(big.Float).SetInt(new(big.Int).MulRange(1, 25)).Float64()
	if rel := math.Abs(got-want) / want; rel > 1e-12 {
		t.Errorf("FactorialFloat(25) = %g, want %g (rel err %g)", got, want, rel)
	}
}

func TestFactorialFloatNegative(t *testing.T) {
	if _, err := FactorialFloat(-1); err == nil {
		t.Error("FactorialFloat(-1): expected error, got nil")
	}
}

func logBig(x *big.Int) float64 {
	f := new(big.Float).SetInt(x)
	mant := new(big.Float)
	exp := f.MantExp(mant)
	m, _ := mant.Float64()
	return math.Log(m) + float64(exp)*math.Ln2
}

func TestFactorialRatioIsBinomialProperty(t *testing.T) {
	// Property: n! / (k!(n-k)!) equals Binomial(n, k) for all 0<=k<=n<=20.
	f := func(a, b uint8) bool {
		n := int(a % 21)
		k := int(b % 21)
		if k > n {
			return true
		}
		nf := factorial(t, n)
		kf := factorial(t, k)
		nkf := factorial(t, n-k)
		return nf/(kf*nkf) == binomial(t, n, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// factorial returns n!, failing the test when Factorial refuses it.
func factorial(t *testing.T, n int) int64 {
	t.Helper()
	v, err := Factorial(n)
	if err != nil {
		t.Fatalf("Factorial(%d): %v", n, err)
	}
	return v
}
