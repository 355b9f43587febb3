// Package bitrand provides deterministic, splittable pseudo-randomness for
// the dual graph simulator.
//
// Every run of the simulator is driven by a single master seed. Per-node and
// per-adversary randomness is derived with Split, which folds a label into
// the parent seed via SplitMix64 so that streams are statistically
// independent and, crucially, reproducible: the same master seed always
// yields the same execution.
//
// The package also exposes bit-level primitives. The paper's constructions
// consume randomness in counted bits: the permuted decay subroutine of
// Section 4.1 consumes log log n bits per round from a shared string, and the
// isolated broadcast functions of Lemma 4.4 are defined over "support
// sequences" of (delta*n)/2 bits, where delta bounds the bits a node uses per
// round. Source tracks consumed bits so tests can verify those budgets.
package bitrand

import (
	"math"
	"math/bits"
)

// splitmix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 is the standard seeding generator recommended for xoshiro.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic pseudo-random bit source based on xoshiro256**.
// It tracks the number of bits consumed, which the simulator uses to enforce
// the per-round bit budgets that appear in the paper's constructions.
//
// A zero Source is not valid; use New or Split.
type Source struct {
	s        [4]uint64
	consumed uint64 // total bits handed out

	// buffered bits not yet consumed, LSB-first
	buf  uint64
	nbuf uint // number of valid bits in buf
}

// New returns a Source seeded from the given master seed.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed re-initializes s in place, exactly as New(seed) constructs it:
// state, consumed-bit accounting, and buffered bits are all reset. It lets
// callers that run many executions reuse Source storage instead of
// allocating a fresh Source per stream.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	for i := range s.s {
		s.s[i] = splitmix64(&sm)
	}
	// xoshiro requires a nonzero state; splitmix64 output is zero for all
	// four words with negligible probability, but guard anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	s.consumed = 0
	s.buf, s.nbuf = 0, 0
}

// Split derives an independent child source labeled by the given values.
// Children with distinct labels are independent streams; the same
// (parent seed, labels) pair always yields the same child.
func (s *Source) Split(labels ...uint64) *Source {
	return New(s.SplitSeed(labels...))
}

// SplitSeed returns the child seed Split derives for the given labels:
// New(s.SplitSeed(labels...)) and s.Split(labels...) are equivalent. It does
// not advance s. Combined with Reseed it derives child streams without
// allocating.
func (s *Source) SplitSeed(labels ...uint64) uint64 {
	sm := s.s[0] ^ s.s[3]
	for _, l := range labels {
		sm ^= splitmix64(&sm) + l
		sm = splitmix64(&sm)
	}
	return sm
}

// next64 returns the next raw 64-bit output (xoshiro256**).
func (s *Source) next64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return result
}

// Uint64 returns a uniform 64-bit value and accounts 64 consumed bits.
func (s *Source) Uint64() uint64 {
	s.consumed += 64
	s.buf, s.nbuf = 0, 0 // a word draw discards buffered bits for simplicity
	return s.next64()
}

// Bits returns k uniform random bits (0 <= k <= 64) in the low bits of the
// result, consuming exactly k bits of the stream. The buffered bits go out
// first, lowest first; when they run short, one fresh word supplies the
// rest and its unused high bits become the new buffer.
func (s *Source) Bits(k uint) uint64 {
	if k == 0 {
		return 0
	}
	if k > 64 {
		k = 64
	}
	s.consumed += uint64(k)
	if k <= s.nbuf {
		out := s.buf & (1<<k - 1)
		s.buf >>= k
		s.nbuf -= k
		return out
	}
	// Every buffered bit is taken (buf holds nothing above bit nbuf), and
	// 1 <= need <= 64 bits come from the fresh word.
	have, need := s.nbuf, k-s.nbuf
	w := s.next64()
	out := s.buf | (w&(1<<need-1))<<have
	s.buf = w >> need
	s.nbuf = 64 - need
	return out
}

// Bit returns a single uniform random bit.
func (s *Source) Bit() uint64 { return s.Bits(1) }

// Consumed reports the total number of bits handed out so far.
func (s *Source) Consumed() uint64 { return s.consumed }

// Float64 returns a uniform value in [0, 1) using 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Bits(53)) / (1 << 53)
}

// Coin returns true with probability p. Out-of-range p is clamped: p ≤ 0
// and p ≥ 1 draw nothing. Otherwise it draws 53 bits and reports
// Float64() < p, through CoinBelow.
func (s *Source) Coin(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.CoinBelow(CoinThreshold(p))
}

// CoinThreshold returns ⌈p·2⁵³⌉, the threshold t with Float64() < p ⇔
// Bits(53) < t for 0 < p < 1: a 53-bit draw x gives Float64() = x·2⁻⁵³,
// and both x·2⁻⁵³ and p·2⁵³ are exact, so x·2⁻⁵³ < p ⇔ x < p·2⁵³ ⇔
// x < ⌈p·2⁵³⌉. A caller flipping many coins at one probability computes it
// once. Outside (0, 1) it keeps the comparison's answer: 0 (never below)
// for p ≤ 0 and for NaN, and 2⁵³ (always below) for p ≥ 1.
func CoinThreshold(p float64) uint64 {
	t := math.Ceil(p * (1 << 53))
	switch {
	case !(t > 0):
		return 0
	case t >= 1<<53:
		return 1 << 53
	}
	return uint64(t)
}

// CoinBelow draws 53 bits, exactly as Bits(53) does — the same value, the
// same consumed count, the same buffer left behind — and reports whether
// they are below t. With t = CoinThreshold(p) it is the 53-bit draw of
// Coin(p) for 0 < p < 1. The xoshiro256** step is written out here, so a
// coin is one call.
//
//dglint:noalloc gate=TestCoinBelowAllocs
func (s *Source) CoinBelow(t uint64) bool {
	const k = 53
	s.consumed += k
	if s.nbuf >= k {
		x := s.buf & (1<<k - 1)
		s.buf >>= k
		s.nbuf -= k
		return x < t
	}
	// As in Bits: every buffered bit goes out first, and the fresh word
	// supplies the other need bits; its unused high bits are the new buffer.
	st := &s.s
	w := bits.RotateLeft64(st[1]*5, 7) * 9
	u := st[1] << 17
	st[2] ^= st[0]
	st[3] ^= st[1]
	st[1] ^= st[2]
	st[0] ^= st[3]
	st[2] ^= u
	st[3] = bits.RotateLeft64(st[3], 45)
	have, need := s.nbuf, k-s.nbuf
	x := s.buf | (w&(1<<need-1))<<have
	s.buf = w >> need
	s.nbuf = 64 - need
	return x < t
}

// CohortCoins flips one coin for each node u in [lo, hi) with from[u] ≤ r:
// streams[u].CoinBelow(t), bit for bit — the same value, the same consumed
// count, the same buffer left behind — in ascending u, and appends every u
// whose coin comes up heads to heads. Nodes with from[u] > r draw nothing.
// The draw is written out in the loop, so a run of coins makes no call, and
// the append grows heads only when it has no room for hi − lo more entries.
//
//dglint:noalloc gate=TestCohortCoinsAllocs
func CohortCoins(heads []int, streams []Source, from []int, lo, hi, r int, t uint64) []int {
	const k = 53
	from, streams = from[lo:hi], streams[lo:hi]
	for i, f := range from {
		if f > r {
			continue
		}
		s := &streams[i]
		s.consumed += k
		var x uint64
		if s.nbuf >= k {
			x = s.buf & (1<<k - 1)
			s.buf >>= k
			s.nbuf -= k
		} else {
			// CoinBelow's refill: the buffered bits go out first, and the
			// fresh xoshiro256** word supplies the rest.
			st := &s.s
			w := bits.RotateLeft64(st[1]*5, 7) * 9
			u := st[1] << 17
			st[2] ^= st[0]
			st[3] ^= st[1]
			st[1] ^= st[2]
			st[0] ^= st[3]
			st[2] ^= u
			st[3] = bits.RotateLeft64(st[3], 45)
			have, need := s.nbuf, k-s.nbuf
			x = s.buf | (w&(1<<need-1))<<have
			s.buf = w >> need
			s.nbuf = 64 - need
		}
		if x < t {
			heads = append(heads, lo+i)
		}
	}
	return heads
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, mirroring
// math/rand, because a nonpositive bound is a programming error.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("bitrand: Intn bound must be positive")
	}
	// Lemire-style rejection-free-ish sampling with rejection fallback for
	// exact uniformity.
	bound := uint64(n)
	for {
		v := s.next64()
		s.consumed += 64
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
