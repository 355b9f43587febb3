package bitrand

import "math/bits"

// Word-parallel bit-vector helpers for the engine's bitset delivery path: a
// set of n nodes is a []uint64 of WordsFor(n) words, bit i marking node i.
// The question the delivery loop asks per listener — "does the transmitter
// set intersect my neighbor mask in exactly one node, and which one" — is
// precisely the radio reception rule (one transmitting neighbor delivers;
// zero is silence; two or more is a collision, and the two are
// indistinguishable to the listener). The engine's kernel,
// IntersectOneIndexed, asks it of a block-sparse row; IntersectOne asks it
// of a full row and is the reference the kernel is tested against.

// WordsFor returns the number of 64-bit words that hold n bits.
func WordsFor(n int) int { return (n + 63) >> 6 }

// SetBit sets bit i of the vector.
func SetBit(w []uint64, i int) { w[i>>6] |= 1 << (uint(i) & 63) }

// ClearBit clears bit i of the vector.
func ClearBit(w []uint64, i int) { w[i>>6] &^= 1 << (uint(i) & 63) }

// TestBit reports whether bit i of the vector is set.
func TestBit(w []uint64, i int) bool { return w[i>>6]>>(uint(i)&63)&1 != 0 }

// OnesCount returns the number of set bits in the vector.
func OnesCount(w []uint64) int {
	total := 0
	for _, x := range w {
		total += bits.OnesCount64(x)
	}
	return total
}

// IntersectOne classifies the intersection a ∧ b, reading len(a) words of
// each (b must be at least as long). It returns (0, -1) for an empty
// intersection, (1, i) when bit i is the single common bit, and (2, -1) for
// two or more common bits — the count saturates, and the scan exits as soon
// as a second bit is seen. It is the full-row reference for
// IntersectOneIndexed: a row and its nonzero blocks must classify every
// transmitter vector identically.
func IntersectOne(a, b []uint64) (count, idx int) {
	var single uint64
	idx = -1
	for i, w := range a {
		x := w & b[i]
		if x == 0 {
			continue
		}
		if single != 0 || x&(x-1) != 0 {
			return 2, -1
		}
		single = x
		idx = i<<6 + bits.TrailingZeros64(x)
	}
	if single == 0 {
		return 0, -1
	}
	return 1, idx
}

// IntersectOneIndexed is IntersectOne over a block-sparse row, and the
// engine's per-listener delivery kernel: idx lists the row's nonzero block
// indices (ascending) and words the matching block values, while b is a
// full vector the blocks index into. Classification and early exit are
// identical to IntersectOne; the returned bit index is in b's bit space.
func IntersectOneIndexed(idx []int32, words []uint64, b []uint64) (count, bitIdx int) {
	var single uint64
	bitIdx = -1
	for i, wi := range idx {
		x := words[i] & b[wi]
		if x == 0 {
			continue
		}
		if single != 0 || x&(x-1) != 0 {
			return 2, -1
		}
		single = x
		bitIdx = int(wi)<<6 + bits.TrailingZeros64(x)
	}
	if single == 0 {
		return 0, -1
	}
	return 1, bitIdx
}
