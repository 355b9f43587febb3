package core

import (
	"math"

	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// PermutedDecayGamma is the paper's γ parameter for the permuted decay
// subroutine: each call runs for γ·log n rounds and succeeds with
// probability > 1/2 (Lemma 4.2 requires γ ≥ 16).
const PermutedDecayGamma = 16

// PermSchedule exposes the deterministic structure shared by every node that
// runs permuted decay from the same bit string: for a global round r, all
// participants must agree on the probability index so their behavior is
// coordinated (Lemma 4.2). Indices are derived from fixed positions of the
// bit string, so two nodes reading the same string at the same round agree
// without any cursor state.
//
// Round r's index is the bitsPer bits at position (r mod blockLen·numBlocks)
// · bitsPer, read as one word (BitString.Word). Every holder of the string
// asks for the same round's index, so Index keeps the last one in the
// string's one-entry Memo, keyed by the round and the schedule's
// parameters: the first holder in a round reads the bits, the others compare
// a key. The memo holds one entry, not a table of every round's index, so a
// private string that is read once a round (PermutedLocalUncoordinated)
// costs no table it never reads.
//
//dglint:pooled reset=Reset
type PermSchedule struct {
	bits    *bitrand.BitString
	levels  int // probability indices range over [1, levels]
	bitsPer int // bits consumed per index (ceil(log2 levels))
	gamma   int
	// blockLen is the length in rounds of one permuted decay call.
	blockLen int
	// numBlocks is the number of distinct calls the string supports before
	// indices wrap (the paper's 2·log n calls for global broadcast).
	numBlocks int
	// period is blockLen·numBlocks, the rounds before indices wrap.
	period int
}

// NewPermSchedule builds the Section 4.1 schedule over the given bits for
// networks of size n supporting numBlocks distinct calls: probability levels
// 2^{-1}..2^{-log n}, γ = 16, block length 16·log n.
func NewPermSchedule(bits *bitrand.BitString, n, numBlocks int) *PermSchedule {
	s := new(PermSchedule)
	s.Reset(bits, n, numBlocks)
	return s
}

// NewPermScheduleLevels builds a schedule with an explicit probability level
// count and γ. The Section 4.3 algorithm decays only over log Δ levels — the
// densest competing-broadcaster neighborhood — giving blocks of γ·log Δ
// rounds.
func NewPermScheduleLevels(bits *bitrand.BitString, levels, numBlocks, gamma int) *PermSchedule {
	s := new(PermSchedule)
	s.ResetLevels(bits, levels, numBlocks, gamma)
	return s
}

// Reset reinitializes the schedule in place, exactly as NewPermSchedule
// constructs it. Processes hold schedules by value and Reset them per
// execution, so the engine's process arena re-runs trials without a
// schedule allocation per informed node.
func (s *PermSchedule) Reset(bits *bitrand.BitString, n, numBlocks int) {
	s.ResetLevels(bits, bitrand.LogN(n), numBlocks, PermutedDecayGamma)
}

// ResetLevels is Reset with an explicit level count and γ, mirroring
// NewPermScheduleLevels.
func (s *PermSchedule) ResetLevels(bits *bitrand.BitString, levels, numBlocks, gamma int) {
	if levels < 1 {
		levels = 1
	}
	if numBlocks < 1 {
		numBlocks = 1
	}
	if gamma < 1 {
		gamma = 1
	}
	*s = PermSchedule{
		bits:      bits,
		levels:    levels,
		bitsPer:   bitrand.BitsFor(levels),
		gamma:     gamma,
		blockLen:  gamma * levels,
		numBlocks: numBlocks,
		period:    gamma * levels * numBlocks,
	}
}

// BlockLen returns the length in rounds of one permuted decay call.
func (s *PermSchedule) BlockLen() int { return s.blockLen }

// Levels returns the number of probability levels.
func (s *PermSchedule) Levels() int { return s.levels }

// BitsLen returns the number of bits the schedule reads before wrapping:
// numBlocks · blockLen · bitsPer.
func (s *PermSchedule) BitsLen() int { return s.numBlocks * s.blockLen * s.bitsPer }

// GlobalBitsLen returns the number of bits the Section 4.1 source string
// must carry for n and numBlocks: numBlocks · 16·log n · loglog n. The
// paper's 32·log²n·loglog n corresponds to numBlocks = 2·log n.
func GlobalBitsLen(n, numBlocks int) int {
	logN := bitrand.LogN(n)
	return numBlocks * PermutedDecayGamma * logN * bitrand.BitsFor(logN)
}

// Index returns the shared probability index i ∈ [1, levels] for global
// round r (rounds before 0 read as round 0). All nodes holding the same bit
// string compute the same value; all but the first in a round read it from
// the string's memo.
func (s *PermSchedule) Index(r int) int {
	if r < 0 {
		r = 0
	}
	m := s.bits.Memo()
	key := [4]int{r, s.levels, s.blockLen, s.numBlocks}
	if m.Valid && m.Key == key {
		return m.Val
	}
	i := 1
	if s.bits.Len() > 0 {
		// Block r/blockLen mod numBlocks, round r mod blockLen within it:
		// together, round r mod period of the string's schedule. An
		// undersized string wraps (see Word).
		v := s.bits.Word(r%s.period*s.bitsPer, s.bitsPer)
		// Map to [1, levels]. With levels a power of two the map is uniform.
		i = int(v%uint64(s.levels)) + 1
	}
	*m = bitrand.Memo{Key: key, Val: i, Valid: true}
	return i
}

// Prob returns the shared transmit probability 2^{-Index(r)} for round r.
func (s *PermSchedule) Prob(r int) float64 {
	i := s.Index(r)
	if i > 1022 {
		// Past the normal exponents, where pow2Neg stops being exact.
		return math.Ldexp(1, -i)
	}
	return pow2Neg(i)
}

// PermutedGlobal is the oblivious-model global broadcast of Section 4.1. The
// source draws S = 32·log²n·loglogn random bits at runtime (after the
// adversary has committed) and appends them to its message. Informed nodes,
// aligned to 16·logn-round block boundaries, run permuted decay using the
// shared bits: every participant transmits with the same probability
// 2^{-i(r)} where i(r) is read from S, so the schedule is unpredictable to
// an oblivious adversary while remaining coordinated (Theorem 4.1:
// O(D log n + log² n) rounds).
type PermutedGlobal struct{}

var _ radio.ProcessFactory = PermutedGlobal{}

// Name implements radio.Algorithm.
func (PermutedGlobal) Name() string { return "permuted-global" }

// NewProcesses implements radio.Algorithm.
func (PermutedGlobal) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	n := net.N()
	numBlocks := 2 * bitrand.LogN(n)
	bits := bitrand.NewBitString(rng, GlobalBitsLen(n, numBlocks))
	procs := make([]radio.Process, n)
	for u := 0; u < n; u++ {
		p := &permGlobalProc{n: n, numBlocks: numBlocks, informedAt: -1}
		if u == spec.Source {
			p.informedAt = 0
			p.sched.Reset(bits, n, numBlocks)
			p.msg = &radio.Message{Origin: spec.Source, Payload: bits}
			p.isSource = true
		}
		procs[u] = p
	}
	return procs
}

// ResetProcesses implements radio.ProcessFactory. The source redraws its
// permutation bits from rng — the same count, in the same order, that
// NewProcesses draws — refilling the previous trial's bit-string storage in
// place; every other process is cleared to uninformed.
func (PermutedGlobal) ResetProcesses(procs []radio.Process, net *graph.Dual, spec radio.Spec, rng *bitrand.Source) bool {
	n := net.N()
	numBlocks := 2 * bitrand.LogN(n)
	for u := range procs {
		p, ok := procs[u].(*permGlobalProc)
		if !ok {
			return false
		}
		if u == spec.Source {
			// Reuse the node's own bit string and message frame when intact:
			// the source never overwrites either during a trial.
			var bits *bitrand.BitString
			if p.isSource && p.msg != nil {
				bits, _ = p.msg.Payload.(*bitrand.BitString)
			}
			L := GlobalBitsLen(n, numBlocks)
			if bits != nil {
				bits.Refill(rng, L)
			} else {
				bits = bitrand.NewBitString(rng, L)
				p.msg = &radio.Message{Origin: u, Payload: bits}
			}
			msg := p.msg
			*p = permGlobalProc{n: n, numBlocks: numBlocks, isSource: true, msg: msg}
			p.sched.Reset(bits, n, numBlocks)
		} else {
			*p = permGlobalProc{n: n, numBlocks: numBlocks, informedAt: -1}
		}
	}
	return true
}

//dglint:pooled reset=PermutedGlobal.ResetProcesses
type permGlobalProc struct {
	n          int
	numBlocks  int
	isSource   bool
	informedAt int // -1 until informed; start/sched/msg are valid iff ≥ 0
	// start is the first block boundary at or after informedAt, the round
	// the node joins permuted decay.
	start int
	sched PermSchedule
	msg   *radio.Message
}

func (p *permGlobalProc) activeProb(r int) float64 {
	if p.informedAt < 0 {
		return 0
	}
	if p.isSource {
		// The source transmits exactly once, in round 0, then is done.
		if r == 0 {
			return 1
		}
		return 0
	}
	if r < p.start {
		return 0
	}
	return p.sched.Prob(r)
}

// TransmitProb implements radio.TransmitProber.
func (p *permGlobalProc) TransmitProb(r int) float64 { return p.activeProb(r) }

// Step implements radio.Process.
func (p *permGlobalProc) Step(r int, rng *bitrand.Source) radio.Action {
	prob := p.activeProb(r)
	if prob <= 0 {
		return radio.Listen()
	}
	if prob >= 1 || rng.Coin(prob) {
		return radio.Transmit(p.msg)
	}
	return radio.Listen()
}

// Deliver implements radio.Process.
func (p *permGlobalProc) Deliver(r int, msg *radio.Message) {
	if msg == nil || p.informedAt >= 0 {
		return
	}
	bits, ok := msg.Payload.(*bitrand.BitString)
	if !ok {
		return // foreign message; ignore
	}
	p.informedAt = r + 1
	p.sched.Reset(bits, p.n, p.numBlocks)
	bl := p.sched.BlockLen()
	p.start = (p.informedAt + bl - 1) / bl * bl
	p.msg = msg
}

// Frame implements radio.BulkStepper: Step is exactly one TransmitProb(r)
// coin (the source's round-0 transmission is probability 1, which draws no
// bits) transmitting the held message, and Deliver ignores silence and,
// once the node is informed, every message. It is no radio.CohortMember:
// the source stops after round 0, which a first round cannot express.
func (p *permGlobalProc) Frame(int) *radio.Message { return p.msg }

// Dormant implements radio.Dormant: only the source's bits wake a node.
func (p *permGlobalProc) Dormant() bool { return p.informedAt < 0 }

var (
	_ radio.BulkStepper = (*permGlobalProc)(nil)
	_ radio.Dormant     = (*permGlobalProc)(nil)
)

// PermutedLocalUncoordinated is the natural-but-insufficient adaptation of
// permuted decay to local broadcast: every broadcaster draws its own private
// permutation bits and runs permuted decay independently. Without shared
// seeds nearby broadcasters cannot coordinate, and on high-independence
// topologies (the bracelet network) the oblivious sampling adversary defeats
// it: Theorem 4.3 shows Ω(√n/log n) is unavoidable. It serves as the
// seed-ablation baseline for the Section 4.3 algorithm.
type PermutedLocalUncoordinated struct{}

var _ radio.ProcessFactory = PermutedLocalUncoordinated{}

// Name implements radio.Algorithm.
func (PermutedLocalUncoordinated) Name() string { return "permuted-local-uncoordinated" }

// NewProcesses implements radio.Algorithm.
func (PermutedLocalUncoordinated) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	n := net.N()
	numBlocks := 2 * bitrand.LogN(n)
	inB := make([]bool, n)
	for _, u := range spec.Broadcasters {
		inB[u] = true
	}
	procs := make([]radio.Process, n)
	for u := 0; u < n; u++ {
		if !inB[u] {
			procs[u] = silentProc{}
			continue
		}
		p := &permLocalProc{msg: &radio.Message{Origin: u}}
		bits := bitrand.NewBitString(rng, GlobalBitsLen(n, numBlocks))
		p.sched.Reset(bits, n, numBlocks)
		procs[u] = p
	}
	return procs
}

// ResetProcesses implements radio.ProcessFactory. Broadcasters redraw their
// private permutation bits in ascending node order — the order NewProcesses
// draws them — refilling each node's own bit-string storage in place.
func (PermutedLocalUncoordinated) ResetProcesses(procs []radio.Process, net *graph.Dual, spec radio.Spec, rng *bitrand.Source) bool {
	n := net.N()
	numBlocks := 2 * bitrand.LogN(n)
	L := GlobalBitsLen(n, numBlocks)
	for u := range procs {
		switch p := procs[u].(type) {
		case *permLocalProc:
			bits := p.sched.bits
			if bits != nil {
				bits.Refill(rng, L)
			} else {
				bits = bitrand.NewBitString(rng, L)
			}
			p.sched.Reset(bits, n, numBlocks)
		case silentProc:
		default:
			return false
		}
	}
	return true
}

//dglint:pooled reset=PermutedLocalUncoordinated.ResetProcesses
type permLocalProc struct {
	sched PermSchedule
	msg   *radio.Message //dglint:allow scratchreset: broadcaster frame (Origin = itself) is immutable, reused across trials
}

// TransmitProb implements radio.TransmitProber.
func (p *permLocalProc) TransmitProb(r int) float64 { return p.sched.Prob(r) }

// Step implements radio.Process.
func (p *permLocalProc) Step(r int, rng *bitrand.Source) radio.Action {
	if rng.Coin(p.sched.Prob(r)) {
		return radio.Transmit(p.msg)
	}
	return radio.Listen()
}

// Deliver implements radio.Process.
func (p *permLocalProc) Deliver(int, *radio.Message) {}
