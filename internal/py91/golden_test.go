package py91

import (
	"math"
	"testing"
)

// TestOptimizeWeightedGolden pins the exact-objective PY91 search bit for
// bit: the returned cut points, weight and value for both communication
// patterns. Every objective value the Nelder-Mead searches compare comes
// from WeightedAverageProtocol.ExactWinProbability, so any change to the
// oracle's arithmetic or to the search starts moves these bits.
func TestOptimizeWeightedGolden(t *testing.T) {
	for _, tc := range []struct {
		pattern Pattern
		// θ0, θ1, θ2, w, P as float bits.
		want [5]uint64
	}{
		{OneWay, [5]uint64{0x3fefffffffff95a2, 0x3fdfffffc2ee50f4, 0x3ef01dc9ed6bc6ae, 0x3fe00000339f93af, 0x3fe5555543a2c5ad}},
		{Broadcast, [5]uint64{0x3fefffffffffb5d0, 0x3fe00000000009c4, 0x3f2b06f6f13a29c0, 0x3fe000000000287c, 0x3fe5555555545aaa}},
	} {
		p, v, err := OptimizeWeighted(tc.pattern)
		if err != nil {
			t.Fatal(err)
		}
		got := [5]float64{p.Theta0, p.Theta1, p.Theta2, p.W, v}
		for i, name := range []string{"θ0", "θ1", "θ2", "w", "P"} {
			if b := math.Float64bits(got[i]); b != tc.want[i] {
				t.Errorf("%v: %s = %v (%#x), golden %v (%#x)",
					tc.pattern, name, got[i], b, math.Float64frombits(tc.want[i]), tc.want[i])
			}
		}
	}
}
