package bitrand

import "testing"

func TestWordsFor(t *testing.T) {
	cases := [][2]int{{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {1000, 16}}
	for _, c := range cases {
		if got := WordsFor(c[0]); got != c[1] {
			t.Errorf("WordsFor(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestBitOps(t *testing.T) {
	w := make([]uint64, WordsFor(200))
	for _, i := range []int{0, 1, 63, 64, 127, 128, 199} {
		if TestBit(w, i) {
			t.Fatalf("bit %d set in zero vector", i)
		}
		SetBit(w, i)
		if !TestBit(w, i) {
			t.Fatalf("bit %d not set after SetBit", i)
		}
	}
	if got := OnesCount(w); got != 7 {
		t.Fatalf("OnesCount = %d, want 7", got)
	}
	ClearBit(w, 64)
	if TestBit(w, 64) {
		t.Fatal("bit 64 still set after ClearBit")
	}
	if got := OnesCount(w); got != 6 {
		t.Fatalf("OnesCount after clear = %d, want 6", got)
	}
}
