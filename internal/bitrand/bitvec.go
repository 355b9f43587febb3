package bitrand

import "math/bits"

// Word-parallel bit-vector helpers for the engine's bitset delivery path: a
// set of n nodes is a []uint64 of WordsFor(n) words, bit i marking node i.
// The engine's push kernel keeps three such vectors per round — the
// transmitters, the listeners that heard at least one of them, and the
// listeners that heard two or more — and a listener receives iff its bit is
// in the second and in neither of the others: the radio reception rule (one
// transmitting neighbor delivers; zero is silence; two or more is a
// collision, and the two are indistinguishable to the listener).

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
