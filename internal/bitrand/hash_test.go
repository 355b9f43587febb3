package bitrand

import (
	"math"
	"testing"
)

// hash64Reference is Hash64 written as one loop with no prefix state: the
// committed adversary schedules, the leader ranks and the L4.2 table all
// depend on every value it returns.
func hash64Reference(vals ...uint64) uint64 {
	h := uint64(0x6a09e667f3bcc909)
	for _, v := range vals {
		h = mix64(h ^ v)
		h += 0x9e3779b97f4a7c15
	}
	return mix64(h)
}

// TestHashPrefixIdentity pins Hash64(a..., b...) == HashFrom(HashPrefix(a...),
// b...) at every split point of random and edge-valued tuples, the float
// forms likewise, and both against the single-loop reference.
func TestHashPrefixIdentity(t *testing.T) {
	edges := []uint64{0, 1, 2, 63, 64, 1 << 63, math.MaxUint64, 0x9e3779b97f4a7c15, hashInit}
	tuples := [][]uint64{nil}
	for _, a := range edges {
		tuples = append(tuples, []uint64{a})
		for _, b := range edges {
			tuples = append(tuples, []uint64{a, b, a})
		}
	}
	src := New(0x4a5b)
	for range 500 {
		tup := make([]uint64, src.Intn(7))
		for i := range tup {
			tup[i] = src.Uint64()
		}
		tuples = append(tuples, tup)
	}
	for _, tup := range tuples {
		want := hash64Reference(tup...)
		if got := Hash64(tup...); got != want {
			t.Fatalf("Hash64%v = %#x, reference %#x", tup, got, want)
		}
		wantF := float64(want>>11) / (1 << 53)
		if got := HashFloat(tup...); got != wantF {
			t.Fatalf("HashFloat%v = %v, want %v", tup, got, wantF)
		}
		for i := 0; i <= len(tup); i++ {
			pre := HashPrefix(tup[:i]...)
			if got := HashFrom(pre, tup[i:]...); got != want {
				t.Fatalf("HashFrom(HashPrefix%v, %v...) = %#x, Hash64 %#x", tup[:i], tup[i:], got, want)
			}
			if got := UnitFloat(HashFrom(pre, tup[i:]...)); got != wantF {
				t.Fatalf("UnitFloat(HashFrom(HashPrefix%v, %v...)) = %v, HashFloat %v", tup[:i], tup[i:], got, wantF)
			}
		}
	}
}

// TestHashGolden pins a few outputs to their literal values, so a change to
// the mixer itself, which the reference above shares, still shows.
func TestHashGolden(t *testing.T) {
	for _, c := range []struct {
		vals []uint64
		want uint64
	}{
		{nil, 0x3564b439cd1e1f16},
		{[]uint64{1, 2, 3}, 0xff2abda121bd36fb},
		{[]uint64{math.MaxUint64, 0}, 0x11edcc88eaf68a2c},
	} {
		if got := Hash64(c.vals...); got != c.want {
			t.Errorf("Hash64%v = %#x, want %#x", c.vals, got, c.want)
		}
	}
}
