package bitrand

import (
	"fmt"
	"math"
)

// BitString is an immutable sequence of random bits, read at fixed
// positions. The paper's algorithms pass explicit bit strings between nodes:
// the oblivious global broadcast source of Section 4.1 appends
// 32*log^2(n)*loglog(n) bits to its message, and the geo local broadcast
// leaders of Section 4.3 commit to seeds of O(log^3 n (loglog n)^2) bits.
// BitString models those payloads: once generated, the bits are fixed, and
// every holder reads the same bits at the same positions (At, Word), so
// holders agree without any cursor state.
//
// Holders that derive the same value from the string in the same round —
// permuted decay's probability index — share it through the string's
// one-entry Memo, so the first holder in a round computes it and the rest
// read it back.
type BitString struct {
	bits []uint64 // packed, LSB-first within each word
	n    int      // total number of bits
	memo Memo
}

// Memo is a one-entry memo of a value that the holders of one BitString
// derive alike: Key names the round and the deriving reader's parameters,
// so readers that derive different values never see each other's, and Val
// is the value derived. It lives in its string, so it never outlives the
// string's execution, and Refill clears it, since the value depends on the
// bits.
type Memo struct {
	Key   [4]int
	Val   int
	Valid bool
}

// NewBitString draws n fresh uniform bits from src.
func NewBitString(src *Source, n int) *BitString {
	b := new(BitString)
	b.Refill(src, n)
	return b
}

// Refill redraws the string in place: afterwards b is indistinguishable from
// NewBitString(src, n), drawing exactly the same bits from src, but reuses
// the word storage when it is large enough, and its Memo is cleared. It
// exists for the process arena: a reset slab redraws its runtime-generated
// bit strings without reallocating them. Callers must ensure no other live
// reader still depends on the old contents (within one engine slab, every
// reader is reset together).
func (b *BitString) Refill(src *Source, n int) {
	if n < 0 {
		n = 0
	}
	words := (n + 63) / 64
	if cap(b.bits) < words {
		b.bits = make([]uint64, words)
	}
	b.bits = b.bits[:words]
	b.n = n
	b.memo = Memo{}
	for i := 0; i < words; i++ {
		rem := n - 64*i
		if rem >= 64 {
			b.bits[i] = src.Bits(64)
		} else {
			b.bits[i] = src.Bits(uint(rem))
		}
	}
}

// Len reports the total number of bits.
func (b *BitString) Len() int { return b.n }

// At returns bit i (0 or 1). It panics on out-of-range access, which is a
// programming error in the simulator.
func (b *BitString) At(i int) uint64 {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitrand: BitString index %d out of range [0,%d)", i, b.n))
	}
	return (b.bits[i/64] >> (uint(i) % 64)) & 1
}

// Word returns the k bits at positions off, off+1, …, off+k−1, each taken
// mod Len, in the low bits of the result, lowest first: Σ_j At((off+j) mod
// Len) << j. k is clamped to [0, 64], and an empty string reads 0. The
// paper's protocols size their strings so that reads never wrap; then, with
// 0 ≤ off, Word reads one or two words, and only an undersized string that
// wraps takes the bit loop.
func (b *BitString) Word(off, k int) uint64 {
	if k <= 0 || b.n == 0 {
		return 0
	}
	if k > 64 {
		k = 64
	}
	if off < 0 || off+k > b.n {
		return b.wrapWord(off, k)
	}
	w, s := off/64, uint(off)%64
	v := b.bits[w] >> s
	if s+uint(k) > 64 {
		v |= b.bits[w+1] << (64 - s)
	}
	return v & (1<<uint(k) - 1)
}

// wrapWord is Word's bit loop for reads that wrap past the end of the
// string (or start before it).
func (b *BitString) wrapWord(off, k int) uint64 {
	i := off % b.n
	if i < 0 {
		i += b.n
	}
	var v uint64
	for j := 0; j < k; j++ {
		v |= (b.bits[i/64] >> (uint(i) % 64) & 1) << uint(j)
		if i++; i == b.n {
			i = 0
		}
	}
	return v
}

// Memo returns the string's one-entry memo (see Memo).
func (b *BitString) Memo() *Memo { return &b.memo }

// Clone returns an independent copy of the bits, with an empty Memo.
func (b *BitString) Clone() *BitString {
	cp := make([]uint64, len(b.bits))
	copy(cp, b.bits)
	return &BitString{bits: cp, n: b.n}
}

// BitsFor returns ceil(log2(m)) for m >= 2, and 1 for m < 2: the number of
// bits needed to index m values.
func BitsFor(m int) int {
	if m < 2 {
		return 1
	}
	k := 0
	for v := m - 1; v > 0; v >>= 1 {
		k++
	}
	return k
}

// Log2Ceil returns ceil(log2(x)) for x >= 1, and 0 for x <= 1.
func Log2Ceil(x int) int {
	if x <= 1 {
		return 0
	}
	k := 0
	for v := x - 1; v > 0; v >>= 1 {
		k++
	}
	return k
}

// Log2Floor returns floor(log2(x)) for x >= 1, and 0 for x <= 1.
func Log2Floor(x int) int {
	if x <= 1 {
		return 0
	}
	k := -1
	for v := x; v > 0; v >>= 1 {
		k++
	}
	return k
}

// LogN returns max(1, ceil(log2(n))): the "log n" that parameterizes the
// paper's algorithms, floored at 1 so tiny test networks stay well defined.
func LogN(n int) int {
	l := Log2Ceil(n)
	if l < 1 {
		l = 1
	}
	return l
}

// LogLogN returns max(1, ceil(log2(LogN(n)))): the "log log n" bit budget for
// one permuted-decay probability selection.
func LogLogN(n int) int {
	l := Log2Ceil(LogN(n))
	if l < 1 {
		l = 1
	}
	return l
}

// NaturalLog returns ln(n) floored at 1, used where the paper's thresholds
// are stated in natural logs (e.g. the c*ln(n) dense/sparse cut of Lemma 4.5).
func NaturalLog(n int) float64 {
	v := math.Log(float64(n))
	if v < 1 {
		v = 1
	}
	return v
}
