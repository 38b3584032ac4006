package model

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
)

// This file is the zero-allocation batch layer of the model: BatchRule
// lets a rule decide many trials in one call (no per-player interface
// dispatch inside the Monte-Carlo hot loop), BatchScratch pools the
// per-worker lane buffers, and BatchKernel samples and plays batches of
// trials as fused, branch-free lane loops.
//
// The load-bearing invariant is RNG draw order: for every trial the
// kernel draws the n inputs first and then one coin per strictly
// randomized player in ascending player order — exactly the sequence
// SampleInputs + Play consumes — so for a fixed stream the batched and
// per-trial paths produce bit-identical outcomes.
//
// Layout: scratch lanes are fixed BatchSize-wide columns in one flat
// slab, column-major — player i's inputs live in column i, coin column c
// in column n+c. A Play of any batch size works the slab in chunks of at
// most BatchSize trials, so the slab is sized once for the widest system
// seen and re-sliced thereafter (mixed-size sweeps stop re-allocating).
// At kernel construction every player's rule is classified into a fused
// lane op (threshold, coin compare, constant, band) whose decide and
// load accumulation run in a single pass over the column with arithmetic
// selects instead of per-trial branches; rules outside the known set
// keep the generic DecideBatch path.

// BatchSize is the lane width of the batch kernel: every scratch column
// holds this many trials, and larger plays are chunked internally. 256
// float64 lanes (2 KiB per column) keep a whole small-n system resident
// in L1 while amortizing loop overhead.
const BatchSize = 256

// BatchRule is implemented by rules that can decide a whole batch of
// trials in one call. The Monte-Carlo engine uses it to skip the
// per-player interface dispatch (and error plumbing) of Decide inside the
// hot loop; rules that do not implement it fall back to the per-trial
// path.
type BatchRule interface {
	LocalRule
	// CoinDraws reports how many rng.Float64 coin draws one Decide call
	// consumes: 0 for deterministic rules, 1 for strictly randomized
	// ones. The batch kernel pre-draws exactly this many coins per trial,
	// in the per-trial order, and passes them through DecideBatch's coins
	// argument — this is what keeps batched RNG streams bit-identical to
	// the per-trial path.
	CoinDraws() int
	// DecideBatch maps inputs[k] (and, when CoinDraws is 1, coins[k]) to
	// out[k] for every k. All slices have equal length; coins is nil when
	// CoinDraws is 0. Implementations must be equivalent to calling
	// Decide once per element with the matching coin as the rng draw.
	DecideBatch(inputs, coins []float64, out []Bin)
}

// LaneSampler is the point source a quasi-Monte-Carlo play draws from:
// Fill writes coordinate dim of points start..start+count-1 into
// dst[:count], each value in [0, 1). Implemented by *qrand.Sequence.
// The kernel uses dimension i < n for player i's input and dimension
// n+c for coin column c.
type LaneSampler interface {
	Fill(dst []float64, dim int, start uint64, count int)
}

// CoinDraws implements BatchRule: a strictly randomized oblivious rule
// consumes one coin per decision, the degenerate 0/1 rules none (Decide
// returns before touching rng).
func (r ObliviousRule) CoinDraws() int {
	if r.P0 > 0 && r.P0 < 1 {
		return 1
	}
	return 0
}

// DecideBatch implements BatchRule.
func (r ObliviousRule) DecideBatch(_, coins []float64, out []Bin) {
	switch {
	case r.P0 <= 0:
		for k := range out {
			out[k] = Bin1
		}
	case r.P0 >= 1:
		for k := range out {
			out[k] = Bin0
		}
	default:
		p0 := r.P0
		for k, c := range coins {
			v := Bin0
			if c >= p0 {
				v = Bin1
			}
			out[k] = v
		}
	}
}

// CoinDraws implements BatchRule: threshold rules are deterministic.
func (r ThresholdRule) CoinDraws() int { return 0 }

// DecideBatch implements BatchRule. The conditional assigns a constant,
// which compiles to a branch-free conditional move — the comparison
// outcome is data-dependent and would otherwise mispredict constantly.
func (r ThresholdRule) DecideBatch(inputs, _ []float64, out []Bin) {
	th := r.Threshold
	for k, x := range inputs {
		v := Bin0
		if x > th {
			v = Bin1
		}
		out[k] = v
	}
}

// IntervalUnionRule is the deterministic rule whose bin-0 region is a
// finite union of disjoint closed intervals, stored flattened for a
// cache-friendly scan. It is the batched counterpart of wrapping an
// interval set in a FuncRule, and the rule type response.IntervalSet
// lowers to.
type IntervalUnionRule struct {
	name string
	los  []float64
	his  []float64
}

// NewIntervalUnionRule builds the rule from interval endpoints
// (los[j], his[j] bound the j-th interval). Intervals must satisfy
// 0 ≤ lo ≤ hi ≤ 1 and be sorted and disjoint. An empty union is valid
// (the rule always chooses bin 1).
func NewIntervalUnionRule(name string, los, his []float64) (IntervalUnionRule, error) {
	if len(los) != len(his) {
		return IntervalUnionRule{}, fmt.Errorf("model: %d interval starts for %d ends", len(los), len(his))
	}
	cl := append([]float64(nil), los...)
	ch := append([]float64(nil), his...)
	for j := range cl {
		if math.IsNaN(cl[j]) || math.IsNaN(ch[j]) || cl[j] < 0 || ch[j] > 1 || cl[j] > ch[j] {
			return IntervalUnionRule{}, fmt.Errorf("model: invalid interval [%v, %v]", cl[j], ch[j])
		}
		if j > 0 && cl[j] <= ch[j-1] {
			return IntervalUnionRule{}, fmt.Errorf("model: intervals [%v, %v] and [%v, %v] out of order or overlapping",
				cl[j-1], ch[j-1], cl[j], ch[j])
		}
	}
	if !sort.Float64sAreSorted(cl) {
		return IntervalUnionRule{}, fmt.Errorf("model: interval starts not sorted")
	}
	return IntervalUnionRule{name: name, los: cl, his: ch}, nil
}

// Name returns the rule's label.
func (r IntervalUnionRule) Name() string { return r.name }

// Contains reports whether x lies in the bin-0 region.
func (r IntervalUnionRule) Contains(x float64) bool {
	for j, lo := range r.los {
		if x < lo {
			return false
		}
		if x <= r.his[j] {
			return true
		}
	}
	return false
}

// Decide implements LocalRule.
func (r IntervalUnionRule) Decide(input float64, _ *rand.Rand) (Bin, error) {
	if r.Contains(input) {
		return Bin0, nil
	}
	return Bin1, nil
}

// CoinDraws implements BatchRule: interval rules are deterministic.
func (r IntervalUnionRule) CoinDraws() int { return 0 }

// DecideBatch implements BatchRule.
func (r IntervalUnionRule) DecideBatch(inputs, _ []float64, out []Bin) {
	if len(r.los) == 1 {
		// Single interval (bands, thresholds): branch-light fast path.
		lo, hi := r.los[0], r.his[0]
		for k, x := range inputs {
			if x >= lo && x <= hi {
				out[k] = Bin0
			} else {
				out[k] = Bin1
			}
		}
		return
	}
	for k, x := range inputs {
		if r.Contains(x) {
			out[k] = Bin0
		} else {
			out[k] = Bin1
		}
	}
}

// Compile-time interface compliance checks for the batch layer.
var (
	_ BatchRule = ObliviousRule{}
	_ BatchRule = ThresholdRule{}
	_ BatchRule = IntervalUnionRule{}
	_ LocalRule = IntervalUnionRule{}
)

// BatchScratch holds the reusable lane buffers one worker needs to sample
// and play batches of trials. The lane slab is sized to the widest system
// the scratch has seen and re-sliced per play (never re-pooled per
// width), so a steady-state worker loop — even one sweeping mixed
// instance sizes — performs zero allocations per trial.
type BatchScratch struct {
	// lanes is one flat slab of (n + coinCols) columns, each BatchSize
	// wide, column-major: column i < n holds player i's inputs for the
	// current chunk, column n+c holds coin column c. Grows monotonically.
	lanes []float64
	// wins holds one flag per trial of the most recent Play (all chunks);
	// it is the only buffer whose size follows the play's batch size.
	wins []bool
	// Per-chunk accumulators and the decision lane for generic rules are
	// fixed-size: chunking bounds them at BatchSize.
	load0, load1 [BatchSize]float64
	dec          [BatchSize]Bin
}

var batchScratchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// GetBatchScratch fetches a scratch buffer from the shared pool.
func GetBatchScratch() *BatchScratch {
	return batchScratchPool.Get().(*BatchScratch)
}

// Release returns the scratch buffer to the pool. The caller must not use
// it afterwards.
func (sc *BatchScratch) Release() { batchScratchPool.Put(sc) }

// Wins exposes the per-trial win flags of the most recent Play batch;
// only the first b entries (the batch size passed to Play) are valid.
func (sc *BatchScratch) Wins() []bool { return sc.wins }

// ensure sizes the lane slab for cols columns and the win buffer for a
// b-trial play. Both grow monotonically: shrinking requests re-slice the
// existing capacity.
func (sc *BatchScratch) ensure(cols, b int) {
	if need := cols * BatchSize; cap(sc.lanes) < need {
		sc.lanes = make([]float64, need)
	} else {
		sc.lanes = sc.lanes[:need]
	}
	if cap(sc.wins) < b {
		sc.wins = make([]bool, b)
	} else {
		sc.wins = sc.wins[:b]
	}
}

// laneKind tags the fused decide+accumulate loop a player's column runs.
type laneKind uint8

const (
	// laneGeneric falls back to BatchRule.DecideBatch plus a separate
	// accumulation pass over the decision lane.
	laneGeneric laneKind = iota
	// laneThreshold : d = 1{x > a}.
	laneThreshold
	// laneCoin : d = 1{coin >= a} (strictly randomized oblivious).
	laneCoin
	// laneConst0 / laneConst1 : every trial goes to bin 0 / bin 1.
	laneConst0
	laneConst1
	// laneBand : d = 1 - 1{a <= x <= b} (single-interval union).
	laneBand
)

// laneOp is one player's classified rule: the lane kind plus up to two
// parameters (threshold, coin bias, or band endpoints), the player's coin
// column (-1 when coinless), and the rule itself for generic dispatch.
// Keeping the per-player state in one slice keeps kernel construction at
// a handful of allocations — it sits on the repeated-evaluation hot path.
type laneOp struct {
	kind laneKind
	coin int
	a, b float64
	rule BatchRule
}

// BatchKernel plays batches of Monte-Carlo trials for one system with no
// per-trial allocation and no per-player interface dispatch. It is
// immutable after construction and safe to share across workers (each
// worker brings its own randomness source and BatchScratch).
type BatchKernel struct {
	capacity float64
	ops      []laneOp
	// widths holds the per-player input ranges π_i, nil for the
	// homogeneous U[0, 1] game (mirroring System.widths).
	widths []float64
	// coinPlayers lists the coin-drawing players ascending; each op's
	// coin field maps the player to its coin column.
	coinPlayers []int
	// fused reports that every player's rule reduced to a coin-free
	// "bin 0 iff fusedLo[i] <= x <= fusedHi[i]" band, enabling the
	// register-resident trial loop that skips the lane slab entirely.
	// fusedTh additionally marks every band as lower-unbounded (pure
	// threshold systems), which halves the per-player compare work.
	fused            bool
	fusedTh          bool
	fusedLo, fusedHi []float64
}

// NewBatchKernel builds the batch kernel for the system, or reports
// ok=false when some player's rule does not implement BatchRule (or
// declares an unsupported coin arity) — those systems take the per-trial
// path.
func NewBatchKernel(sys *System) (*BatchKernel, bool) {
	if sys == nil {
		return nil, false
	}
	k := &BatchKernel{
		capacity: sys.capacity,
		ops:      make([]laneOp, len(sys.rules)),
		widths:   sys.widths,
	}
	for i, r := range sys.rules {
		br, ok := r.(BatchRule)
		if !ok {
			return nil, false
		}
		op := classify(br)
		op.rule = br
		switch br.CoinDraws() {
		case 0:
			op.coin = -1
		case 1:
			op.coin = len(k.coinPlayers)
			k.coinPlayers = append(k.coinPlayers, i)
		default:
			return nil, false
		}
		k.ops[i] = op
	}
	k.buildFused()
	return k, true
}

// buildFused lowers the op list to per-player bin-0 bands when every rule
// is deterministic and simple: bin 0 iff lo <= x <= hi. Threshold rules
// become (-Inf, th] (x > th is the exact complement for the finite inputs
// the game draws), bands keep their endpoints, constant rules get the
// full or the empty line. Anything with coins, generic dispatch, or a NaN
// parameter keeps the lane path.
func (k *BatchKernel) buildFused() {
	n := len(k.ops)
	buf := make([]float64, 2*n)
	lo, hi := buf[:n:n], buf[n:]
	for i, op := range k.ops {
		switch op.kind {
		case laneThreshold:
			if math.IsNaN(op.a) {
				return
			}
			lo[i], hi[i] = math.Inf(-1), op.a
		case laneBand:
			lo[i], hi[i] = op.a, op.b
		case laneConst0:
			lo[i], hi[i] = math.Inf(-1), math.Inf(1)
		case laneConst1:
			lo[i], hi[i] = math.Inf(1), math.Inf(-1)
		default:
			return
		}
	}
	k.fused, k.fusedLo, k.fusedHi = true, lo, hi
	k.fusedTh = true
	for _, l := range lo {
		if !math.IsInf(l, -1) {
			k.fusedTh = false
			break
		}
	}
}

// classify maps a rule to its fused lane op; unknown rule types keep the
// generic DecideBatch path. Each mapping mirrors the rule's DecideBatch
// semantics exactly (including NaN parameters, where the comparison in
// the fused loop and in DecideBatch is the same expression).
func classify(br BatchRule) laneOp {
	switch r := br.(type) {
	case ThresholdRule:
		return laneOp{kind: laneThreshold, a: r.Threshold}
	case ObliviousRule:
		switch {
		case r.P0 <= 0:
			return laneOp{kind: laneConst1}
		case r.P0 >= 1:
			return laneOp{kind: laneConst0}
		default:
			return laneOp{kind: laneCoin, a: r.P0}
		}
	case IntervalUnionRule:
		switch len(r.los) {
		case 0:
			return laneOp{kind: laneConst1}
		case 1:
			return laneOp{kind: laneBand, a: r.los[0], b: r.his[0]}
		}
	}
	return laneOp{kind: laneGeneric}
}

// N returns the number of players.
func (k *BatchKernel) N() int { return len(k.ops) }

// Play samples and plays b trials drawn from pcg, using sc's buffers, and
// returns the number of wins. Per-trial win flags are left in
// sc.Wins()[:b]. Every trial draws exactly Dims() values, in the order
// and with the Float64 construction of b successive SampleInputs + Play
// rounds on rand.New(pcg), so batched results are bit-identical to the
// per-trial path on a fixed stream. The draws are direct *rand.PCG calls,
// not Source interface calls.
func (k *BatchKernel) Play(sc *BatchScratch, pcg *rand.PCG, b int) int {
	n, cc := len(k.ops), len(k.coinPlayers)
	if k.fused {
		// Coin-free simple systems skip the lane slab: draws, decisions
		// and load sums all stay in registers, one pass per trial.
		sc.ensure(0, b)
		if k.fusedTh {
			return k.playFusedThPCG(pcg, b, sc.wins)
		}
		return k.playFusedPCG(pcg, b, sc.wins)
	}
	sc.ensure(n+cc, b)
	wins := 0
	for off := 0; off < b; off += BatchSize {
		c := min(BatchSize, b-off)
		k.fillPCG(sc, pcg, c)
		wins += k.playChunk(sc, c, sc.wins[off:off+c])
	}
	return wins
}

// playFusedPCG is the register-resident trial loop over the concrete PCG
// source: per player it draws, selects the bin by band membership, and
// accumulates both loads without touching the lane slab. The summation
// per trial runs in ascending player order adding exactly x or +0.0 per
// bin, so results stay bit-identical to the lane and per-trial paths.
func (k *BatchKernel) playFusedPCG(pcg *rand.PCG, b int, winbuf []bool) int {
	lo := k.fusedLo
	hi := k.fusedHi[:len(lo)]
	cap := k.capacity
	winbuf = winbuf[:b]
	wins := 0
	if k.widths == nil {
		for t := range winbuf {
			l0, l1 := 0.0, 0.0
			for i, liLo := range lo {
				x := srcFloat64(pcg.Uint64())
				m := math.Float64frombits(math.Float64bits(x) & -(b2u(x >= liLo) & b2u(x <= hi[i])))
				l0 += m
				l1 += x - m
			}
			u := b2u(l0 <= cap) & b2u(l1 <= cap)
			winbuf[t] = u != 0
			wins += int(u)
		}
		return wins
	}
	widths := k.widths[:len(lo)]
	for t := range winbuf {
		l0, l1 := 0.0, 0.0
		for i, liLo := range lo {
			x := srcFloat64(pcg.Uint64()) * widths[i]
			m := math.Float64frombits(math.Float64bits(x) & -(b2u(x >= liLo) & b2u(x <= hi[i])))
			l0 += m
			l1 += x - m
		}
		u := b2u(l0 <= cap) & b2u(l1 <= cap)
		winbuf[t] = u != 0
		wins += int(u)
	}
	return wins
}

// playFusedThPCG is playFusedPCG for pure threshold systems: every band
// is lower-unbounded, so membership is the single compare x <= hi[i].
func (k *BatchKernel) playFusedThPCG(pcg *rand.PCG, b int, winbuf []bool) int {
	hi := k.fusedHi
	cap := k.capacity
	winbuf = winbuf[:b]
	wins := 0
	if k.widths == nil {
		for t := range winbuf {
			l0, l1 := 0.0, 0.0
			for _, th := range hi {
				x := srcFloat64(pcg.Uint64())
				m := math.Float64frombits(math.Float64bits(x) & -b2u(x <= th))
				l0 += m
				l1 += x - m
			}
			u := b2u(l0 <= cap) & b2u(l1 <= cap)
			winbuf[t] = u != 0
			wins += int(u)
		}
		return wins
	}
	widths := k.widths[:len(hi)]
	for t := range winbuf {
		l0, l1 := 0.0, 0.0
		for i, th := range hi {
			x := srcFloat64(pcg.Uint64()) * widths[i]
			m := math.Float64frombits(math.Float64bits(x) & -b2u(x <= th))
			l0 += m
			l1 += x - m
		}
		u := b2u(l0 <= cap) & b2u(l1 <= cap)
		winbuf[t] = u != 0
		wins += int(u)
	}
	return wins
}

// PlayQMC plays b trials whose coordinates are points start..start+b-1
// of a low-discrepancy sequence: dimension i < n is player i's input
// (scaled by π_i in the heterogeneous game), dimension n+c is coin
// column c. It returns the number of wins, with per-trial flags in
// sc.Wins()[:b]. Unlike the serial RNG paths, disjoint index ranges are
// independent, so shards may play them in any order.
func (k *BatchKernel) PlayQMC(sc *BatchScratch, seq LaneSampler, start uint64, b int) int {
	n, cc := len(k.ops), len(k.coinPlayers)
	sc.ensure(n+cc, b)
	wins := 0
	for off := 0; off < b; off += BatchSize {
		c := min(BatchSize, b-off)
		for i := 0; i < n+cc; i++ {
			seq.Fill(sc.lanes[i*BatchSize:i*BatchSize+c], i, start+uint64(off), c)
		}
		if k.widths != nil {
			for i, w := range k.widths {
				col := sc.lanes[i*BatchSize : i*BatchSize+c]
				for t := range col {
					col[t] *= w
				}
			}
		}
		wins += k.playChunk(sc, c, sc.wins[off:off+c])
	}
	return wins
}

// Dims reports the number of sample-space dimensions one trial consumes:
// n inputs plus one coin per strictly randomized player. A LaneSampler
// handed to PlayQMC must provide at least this many dimensions.
func (k *BatchKernel) Dims() int { return len(k.ops) + len(k.coinPlayers) }

// srcFloat64 is the math/rand/v2 Float64 construction applied to a raw
// source draw, for kernels that draw from a concrete *rand.PCG rather
// than through *rand.Rand. The multiply by 0x1p-53 is bit-identical to the stdlib's
// division by 2^53 — both are exact scalings of a 53-bit integer — but
// compiles to MULSD instead of the slower DIVSD.
func srcFloat64(u uint64) float64 { return float64(u<<11>>11) * 0x1p-53 }

// fillPCG draws one chunk of c trials from pcg into the lane slab,
// trial-major (the per-trial draw order: n inputs, then the coins in
// ascending player order), storing column-major. The homogeneous loop is
// kept separate so its stream of operations — and therefore its bits —
// matches the pre-heterogeneous kernel exactly.
func (k *BatchKernel) fillPCG(sc *BatchScratch, pcg *rand.PCG, c int) {
	n, cc := len(k.ops), len(k.coinPlayers)
	lanes := sc.lanes
	if k.widths == nil {
		for t := 0; t < c; t++ {
			for i := 0; i < n+cc; i++ {
				lanes[i*BatchSize+t] = srcFloat64(pcg.Uint64())
			}
		}
		return
	}
	for t := 0; t < c; t++ {
		for i := 0; i < n; i++ {
			lanes[i*BatchSize+t] = srcFloat64(pcg.Uint64()) * k.widths[i]
		}
		for j := n; j < n+cc; j++ {
			lanes[j*BatchSize+t] = srcFloat64(pcg.Uint64())
		}
	}
}

// playChunk decides and scores one filled chunk of c trials, writing
// per-trial flags into winbuf[:c] and returning the win count.
//
// Loads accumulate player by player; per trial the additions run in
// ascending player order, matching the per-trial Play's summation order
// so the floating-point results agree bit-for-bit: with d ∈ {0, 1} the
// branch-free m = x·d select adds either exactly x or exactly +0.0 to a
// bin, and adding +0.0 to a non-negative load leaves its bits unchanged.
// The arithmetic select avoids a data-dependent branch that would
// mispredict on every other trial.
func (k *BatchKernel) playChunk(sc *BatchScratch, c int, winbuf []bool) int {
	n := len(k.ops)
	load0, load1 := sc.load0[:c], sc.load1[:c]
	for t := range load0 {
		load0[t], load1[t] = 0, 0
	}
	for i := range k.ops {
		col := sc.lanes[i*BatchSize : i*BatchSize+c]
		op := &k.ops[i]
		switch op.kind {
		case laneThreshold:
			fuseThreshold(col, load0, load1, op.a)
		case laneCoin:
			ci := op.coin
			coin := sc.lanes[(n+ci)*BatchSize : (n+ci)*BatchSize+c]
			fuseCoin(col, coin, load0, load1, op.a)
		case laneConst0:
			fuseConst(col, load0)
		case laneConst1:
			fuseConst(col, load1)
		case laneBand:
			fuseBand(col, load0, load1, op.a, op.b)
		default:
			var cs []float64
			if ci := op.coin; ci >= 0 {
				cs = sc.lanes[(n+ci)*BatchSize : (n+ci)*BatchSize+c]
			}
			dec := sc.dec[:c]
			op.rule.DecideBatch(col, cs, dec)
			fuseDecisions(col, dec, load0, load1)
		}
	}

	cap := k.capacity
	wins := 0
	for t := 0; t < c; t++ {
		// Branch-free win count: the data-dependent flag would mispredict
		// roughly every other trial as a conditional increment.
		u := b2u(load0[t] <= cap) & b2u(load1[t] <= cap)
		winbuf[t] = u != 0
		wins += int(u)
	}
	return wins
}

// b2u converts a comparison result to 0/1 branch-free (SETcc).
func b2u(c bool) uint64 {
	var u uint64
	if c {
		u = 1
	}
	return u
}

// sel0 returns x when c holds and +0.0 otherwise, without a branch or an
// int→float conversion: ANDing the payload bits with an all-ones/zero
// mask yields exactly x or +0.0, the two values the reference path's
// x·d select produces.
func sel0(x float64, c bool) float64 {
	return math.Float64frombits(math.Float64bits(x) & -b2u(c))
}

// fuseThreshold: d = 1{x > th}. m = sel0(x, d) is exactly x or +0.0, so
// load1 += m and load0 += x − m reproduce the ±0.0-exact per-trial sums.
func fuseThreshold(col, load0, load1 []float64, th float64) {
	load0 = load0[:len(col)]
	load1 = load1[:len(col)]
	for t, x := range col {
		m := sel0(x, x > th)
		load0[t] += x - m
		load1[t] += m
	}
}

// fuseCoin: d = 1{coin >= p0} (strictly randomized oblivious player).
func fuseCoin(col, coin, load0, load1 []float64, p0 float64) {
	load0 = load0[:len(col)]
	load1 = load1[:len(col)]
	coin = coin[:len(col)]
	for t, x := range col {
		m := sel0(x, coin[t] >= p0)
		load0[t] += x - m
		load1[t] += m
	}
}

// fuseConst adds the whole column to one bin (degenerate rules). The
// other bin receives exactly +0.0 per trial in the reference path, which
// never changes a non-negative load's bits, so skipping it is exact.
func fuseConst(col, load []float64) {
	load = load[:len(col)]
	for t, x := range col {
		load[t] += x
	}
}

// fuseBand: d = 1 − 1{lo <= x <= hi} (single-interval union rule). The
// two comparisons combine with & rather than && so no short-circuit
// branch is emitted.
func fuseBand(col, load0, load1 []float64, lo, hi float64) {
	load0 = load0[:len(col)]
	load1 = load1[:len(col)]
	for t, x := range col {
		m := math.Float64frombits(math.Float64bits(x) & -(b2u(x >= lo) & b2u(x <= hi)))
		load0[t] += m
		load1[t] += x - m
	}
}

// fuseDecisions accumulates a generic rule's decision lane.
func fuseDecisions(col []float64, dec []Bin, load0, load1 []float64) {
	load0 = load0[:len(col)]
	load1 = load1[:len(col)]
	dec = dec[:len(col)]
	for t, x := range col {
		m := sel0(x, dec[t] == Bin1)
		load0[t] += x - m
		load1[t] += m
	}
}
