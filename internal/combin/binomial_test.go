package combin

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestBinomialSmallTable(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1},
		{1, 0, 1},
		{1, 1, 1},
		{4, 2, 6},
		{5, 2, 10},
		{10, 3, 120},
		{10, 7, 120},
		{20, 10, 184756},
		{52, 5, 2598960},
		{61, 30, 232714176627630544},
		{3, 5, 0},
		{0, 1, 0},
	}
	for _, c := range cases {
		got, err := Binomial(c.n, c.k)
		if err != nil {
			t.Fatalf("Binomial(%d, %d): %v", c.n, c.k, err)
		}
		if got != c.want {
			t.Errorf("Binomial(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialNegativeArgs(t *testing.T) {
	if _, err := Binomial(-1, 0); err == nil {
		t.Error("Binomial(-1, 0): expected error")
	}
	if _, err := Binomial(3, -2); err == nil {
		t.Error("Binomial(3, -2): expected error")
	}
}

func TestBinomialOverflow(t *testing.T) {
	if _, err := Binomial(200, 100); err == nil {
		t.Error("Binomial(200, 100): expected overflow error")
	}
	// C(66, 33) > int64 max; C(61, 30) fits.
	if _, err := Binomial(66, 33); err == nil {
		t.Error("Binomial(66, 33): expected overflow error")
	}
	if _, err := Binomial(61, 30); err != nil {
		t.Errorf("Binomial(61, 30): unexpected error %v", err)
	}
}

func TestBinomialPascalIdentityProperty(t *testing.T) {
	// Property: C(n, k) = C(n-1, k-1) + C(n-1, k) on the int64-safe range.
	f := func(a, b uint8) bool {
		n := 1 + int(a%50)
		k := 1 + int(b%50)
		if k > n {
			n, k = k, n
		}
		return binomial(t, n, k) == binomial(t, n-1, k-1)+binomial(t, n-1, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialSymmetryProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		n := int(a % 55)
		k := int(b % 56)
		if k > n {
			return true
		}
		return binomial(t, n, k) == binomial(t, n, n-k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialBigAgainstInt64(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for k := 0; k <= n; k++ {
			b, err := BinomialBig(n, k)
			if err != nil {
				t.Fatalf("BinomialBig(%d, %d): %v", n, k, err)
			}
			want, err := Binomial(n, k)
			if err != nil {
				continue // overflow cases exercised elsewhere
			}
			if !b.IsInt64() || b.Int64() != want {
				t.Errorf("BinomialBig(%d, %d) = %v, want %d", n, k, b, want)
			}
		}
	}
}

func TestBinomialBigRowSums(t *testing.T) {
	// Σ_k C(n, k) = 2^n, exactly, for large n beyond int64.
	for _, n := range []int{70, 100} {
		sum := new(big.Int)
		for k := 0; k <= n; k++ {
			c, err := BinomialBig(n, k)
			if err != nil {
				t.Fatalf("BinomialBig(%d, %d): %v", n, k, err)
			}
			sum.Add(sum, c)
		}
		want := new(big.Int).Lsh(big.NewInt(1), uint(n))
		if sum.Cmp(want) != 0 {
			t.Errorf("row %d sums to %v, want 2^%d", n, sum, n)
		}
	}
}

func TestBinomialBigKGreaterThanN(t *testing.T) {
	b, err := BinomialBig(3, 7)
	if err != nil {
		t.Fatalf("BinomialBig(3, 7): %v", err)
	}
	if b.Sign() != 0 {
		t.Errorf("BinomialBig(3, 7) = %v, want 0", b)
	}
}

func TestBinomialBigNegative(t *testing.T) {
	if _, err := BinomialBig(-2, 1); err == nil {
		t.Error("BinomialBig(-2, 1): expected error")
	}
}

func TestBinomialFloatExactRange(t *testing.T) {
	for n := 0; n <= 30; n++ {
		for k := 0; k <= n; k++ {
			got, err := BinomialFloat(n, k)
			if err != nil {
				t.Fatalf("BinomialFloat(%d, %d): %v", n, k, err)
			}
			if got != float64(binomial(t, n, k)) {
				t.Errorf("BinomialFloat(%d, %d) = %g, want %d exactly", n, k, got, binomial(t, n, k))
			}
		}
	}
}

func TestBinomialFloatZeroAndErrors(t *testing.T) {
	if got, err := BinomialFloat(4, 9); err != nil || got != 0 {
		t.Errorf("BinomialFloat(4, 9) = %g, %v; want 0, nil", got, err)
	}
	if _, err := BinomialFloat(-1, 1); err == nil {
		t.Error("BinomialFloat(-1, 1): expected error")
	}
}

func TestPascalRowMatchesBinomial(t *testing.T) {
	for n := 0; n <= 40; n++ {
		row, err := PascalRow(n)
		if err != nil {
			t.Fatalf("PascalRow(%d): %v", n, err)
		}
		if len(row) != n+1 {
			t.Fatalf("PascalRow(%d) has length %d, want %d", n, len(row), n+1)
		}
		for k := 0; k <= n; k++ {
			want, err := BinomialBig(n, k)
			if err != nil {
				t.Fatal(err)
			}
			wf, _ := new(big.Float).SetInt(want).Float64()
			if row[k] != wf {
				t.Errorf("PascalRow(%d)[%d] = %g, want %g", n, k, row[k], wf)
			}
		}
	}
}

func TestPascalRowErrors(t *testing.T) {
	if _, err := PascalRow(-1); err == nil {
		t.Error("PascalRow(-1): expected error")
	}
	if _, err := PascalRow(100); err == nil {
		t.Error("PascalRow(100): expected exact-range error")
	}
}

func TestMultinomial(t *testing.T) {
	cases := []struct {
		ks   []int
		want int64
	}{
		{[]int{0}, 1},
		{[]int{3}, 1},
		{[]int{1, 1, 1}, 6},
		{[]int{2, 1}, 3},
		{[]int{2, 2, 2}, 90},
		{[]int{4, 4, 4}, 34650},
	}
	for _, c := range cases {
		got, err := Multinomial(c.ks...)
		if err != nil {
			t.Fatalf("Multinomial(%v): %v", c.ks, err)
		}
		if got != c.want {
			t.Errorf("Multinomial(%v) = %d, want %d", c.ks, got, c.want)
		}
	}
	if _, err := Multinomial(2, -1); err == nil {
		t.Error("Multinomial(2, -1): expected error")
	}
	if _, err := Multinomial(40, 40, 40); err == nil {
		t.Error("Multinomial(40, 40, 40): expected overflow error")
	}
}

// binomial returns C(n, k), failing the test when Binomial refuses it.
func binomial(t *testing.T, n, k int) int64 {
	t.Helper()
	v, err := Binomial(n, k)
	if err != nil {
		t.Fatalf("Binomial(%d, %d): %v", n, k, err)
	}
	return v
}
