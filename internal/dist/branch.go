package dist

import (
	"fmt"
	"math/big"

	"repro/internal/problem"
)

// MaxBranchPlayers bounds the player count of WinProbabilityRat: it sums
// over every choice of one branch per player (2^n choices for two
// branches each), with two exact Lemma 2.4 CDFs per choice. On threshold
// players with dyadic inputs one call takes up to a few seconds at
// n = 14, and its cost grows with δ.
const MaxBranchPlayers = 14

// Branch is one outcome of a player's decision: with probability Mass the
// player enters bin Bin (0 or 1) and its load is uniform on [Lo, Hi]
// (a point load when Lo = Hi).
type Branch struct {
	Bin    int
	Mass   *big.Rat
	Lo, Hi *big.Rat
}

// WinProbabilityRat is the exact rational oracle for the winning
// probability of any rule whose players decide independently: the
// probability that neither bin's load exceeds δ when player i takes branch
// b of players[i] with probability b.Mass. Theorems 4.1 and 5.1, their
// heterogeneous generalizations and the interval-union rules are all
// branch lists. The sum runs over every choice of one branch per player,
//
//	P = Σ_choice Π_i Mass_i · Π_{bin} F_{widths(bin)}(δ − Σ_{i in bin} Lo_i),
//
// where F is the Lemma 2.4 CDF (CDFRat) of the widths Hi − Lo of the
// bin's branches; a point load shifts the threshold and adds no width.
// Each player's masses must sum to exactly 1, every bin must be 0 or 1,
// 0 ≤ Lo ≤ Hi, and at most MaxBranchPlayers players are accepted.
func WinProbabilityRat(players [][]Branch, delta *big.Rat) (*big.Rat, error) {
	n := len(players)
	if n > MaxBranchPlayers {
		return nil, problem.PlayerCapError("dist: exact branch evaluation limited to %d players, got %d", MaxBranchPlayers, n)
	}
	if delta == nil || delta.Sign() <= 0 {
		return nil, fmt.Errorf("dist: capacity must be strictly positive")
	}
	one := big.NewRat(1, 1)
	widths := make([][]*big.Rat, n)
	for i, branches := range players {
		sum := new(big.Rat)
		widths[i] = make([]*big.Rat, len(branches))
		for j, b := range branches {
			switch {
			case b.Bin != 0 && b.Bin != 1:
				return nil, fmt.Errorf("dist: player %d branch %d: bin %d is not 0 or 1", i, j, b.Bin)
			case b.Mass == nil || b.Lo == nil || b.Hi == nil:
				return nil, fmt.Errorf("dist: player %d branch %d: nil mass or endpoint", i, j)
			case b.Mass.Sign() < 0:
				return nil, fmt.Errorf("dist: player %d branch %d: negative mass %v", i, j, b.Mass)
			case b.Lo.Sign() < 0 || b.Lo.Cmp(b.Hi) > 0:
				return nil, fmt.Errorf("dist: player %d branch %d: load interval [%v, %v] invalid", i, j, b.Lo, b.Hi)
			}
			sum.Add(sum, b.Mass)
			widths[i][j] = new(big.Rat).Sub(b.Hi, b.Lo)
		}
		if sum.Cmp(one) != 0 {
			return nil, fmt.Errorf("dist: player %d's masses sum to %v, not 1", i, sum)
		}
	}
	// Depth-first over the players: weight[i] is the product of the
	// first i players' masses, shift[i][bin] is δ minus their point loads
	// in that bin, and loads[bin] stacks their positive widths.
	weight := make([]*big.Rat, n+1)
	shift := make([][2]*big.Rat, n+1)
	for i := range weight {
		weight[i] = new(big.Rat)
		shift[i] = [2]*big.Rat{new(big.Rat), new(big.Rat)}
	}
	weight[0].SetInt64(1)
	shift[0][0].Set(delta)
	shift[0][1].Set(delta)
	var loads [2][]*big.Rat
	total := new(big.Rat)
	var walk func(i int) error
	walk = func(i int) error {
		if i == n {
			f0, err := CDFRat(loads[0], shift[n][0])
			if err != nil || f0.Sign() == 0 {
				return err
			}
			f1, err := CDFRat(loads[1], shift[n][1])
			if err != nil {
				return err
			}
			f0.Mul(f0, f1)
			total.Add(total, f0.Mul(f0, weight[n]))
			return nil
		}
		for j, b := range players[i] {
			if b.Mass.Sign() == 0 {
				continue
			}
			bin, other := b.Bin, 1-b.Bin
			shift[i+1][bin].Sub(shift[i][bin], b.Lo)
			if shift[i+1][bin].Sign() < 0 {
				continue // the bin's point loads alone overflow it
			}
			shift[i+1][other].Set(shift[i][other])
			weight[i+1].Mul(weight[i], b.Mass)
			w := widths[i][j]
			if w.Sign() > 0 {
				loads[bin] = append(loads[bin], w)
			}
			if err := walk(i + 1); err != nil {
				return err
			}
			if w.Sign() > 0 {
				loads[bin] = loads[bin][:len(loads[bin])-1]
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	return total, nil
}
