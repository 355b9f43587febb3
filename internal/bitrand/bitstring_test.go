package bitrand

import (
	"testing"
	"testing/quick"
)

func TestBitStringLenAndAt(t *testing.T) {
	src := New(1)
	b := NewBitString(src, 130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for i := 0; i < 130; i++ {
		v := b.At(i)
		if v != 0 && v != 1 {
			t.Fatalf("At(%d) = %d", i, v)
		}
	}
}

func TestBitStringAtPanics(t *testing.T) {
	b := NewBitString(New(1), 8)
	defer func() {
		if recover() == nil {
			t.Fatal("At(8) on length-8 string did not panic")
		}
	}()
	b.At(8)
}

// refWord is the bit loop Word replaces: Σ_j At((off+j) mod Len) << j, with
// k clamped to [0, 64] and an empty string reading 0.
func refWord(b *BitString, off, k int) uint64 {
	n := b.Len()
	if n == 0 || k <= 0 {
		return 0
	}
	if k > 64 {
		k = 64
	}
	var v uint64
	for j := 0; j < k; j++ {
		i := (off + j) % n
		if i < 0 {
			i += n
		}
		v |= b.At(i) << uint(j)
	}
	return v
}

// TestBitStringWordMatchesAt checks Word against the bit loop at offsets on,
// beside and across word boundaries, for every k from 0 to 64 and past it.
func TestBitStringWordMatchesAt(t *testing.T) {
	b := NewBitString(New(2), 200)
	for _, off := range []int{0, 1, 31, 62, 63, 64, 65, 100, 127, 128, 129, 135, 136, 137, 150, 199} {
		for k := 0; k <= 65; k++ {
			if got, want := b.Word(off, k), refWord(b, off, k); got != want {
				t.Fatalf("Word(%d, %d) = %#x, want %#x", off, k, got, want)
			}
		}
	}
}

// TestBitStringWordWraps checks the reads that leave the string: off+k past
// Len, off past Len, off below 0, and strings shorter than k.
func TestBitStringWordWraps(t *testing.T) {
	for _, n := range []int{1, 3, 10, 63, 64, 65, 130} {
		b := NewBitString(New(uint64(n)), n)
		for _, off := range []int{-2 * n, -n - 1, -1, 0, n / 2, n - 1, n, n + 5, 3*n + 1} {
			for _, k := range []int{0, 1, 2, 7, 63, 64} {
				if got, want := b.Word(off, k), refWord(b, off, k); got != want {
					t.Fatalf("n=%d: Word(%d, %d) = %#x, want %#x", n, off, k, got, want)
				}
			}
		}
	}
	// A 3-bit string read for 6 bits repeats its pattern.
	b := NewBitString(New(9), 3)
	if v := b.Word(0, 6); v&7 != v>>3 {
		t.Fatalf("wrapped read %b does not repeat the string", v)
	}
}

func TestBitStringWordEmpty(t *testing.T) {
	for _, b := range []*BitString{NewBitString(New(4), 0), {}} {
		for _, k := range []int{0, 1, 8, 64} {
			if got := b.Word(5, k); got != 0 {
				t.Fatalf("Word(5, %d) on an empty string = %d, want 0", k, got)
			}
		}
	}
}

// TestBitStringRefillClearsMemo: a value memoized from the old bits must not
// survive a Refill, and a Clone starts with no memo.
func TestBitStringRefillClearsMemo(t *testing.T) {
	b := NewBitString(New(5), 64)
	*b.Memo() = Memo{Key: [4]int{1, 2, 3, 4}, Val: 7, Valid: true}
	if c := b.Clone(); c.Memo().Valid {
		t.Fatal("Clone copied the memo")
	}
	b.Refill(New(6), 64)
	if b.Memo().Valid {
		t.Fatal("Refill kept the memo of the old bits")
	}
}

func TestBitStringCloneCopies(t *testing.T) {
	b := NewBitString(New(7), 64)
	c := b.Clone()
	for i := 0; i < 64; i++ {
		if b.At(i) != c.At(i) {
			t.Fatalf("clone differs at bit %d", i)
		}
	}
	// The clone owns its words: refilling the original leaves it alone.
	want := c.Word(0, 64)
	b.Refill(New(8), 64)
	if c.Word(0, 64) != want {
		t.Fatal("clone shares storage with the original")
	}
}

// FuzzWord reads a fuzzed string at fuzzed offsets and widths, against the
// bit loop Word replaces.
func FuzzWord(f *testing.F) {
	f.Add(uint64(1), uint16(200), []byte{0, 64, 63, 2, 127, 64, 199, 1, 0, 0})
	f.Add(uint64(2), uint16(3), []byte{0, 6, 2, 64, 255, 63})
	f.Add(uint64(3), uint16(0), []byte{0, 1, 5, 64})
	f.Add(uint64(4), uint16(64), []byte{1, 64, 63, 64, 64, 1})
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, ops []byte) {
		b := NewBitString(New(seed), int(n%1024))
		for i := 0; i+1 < len(ops); i += 2 {
			// Offsets reach a little before 0 and past the end.
			off := int(ops[i])*int(n%1024+2)/128 - 4
			k := int(ops[i+1]) % 70
			if got, want := b.Word(off, k), refWord(b, off, k); got != want {
				t.Fatalf("Len %d: Word(%d, %d) = %#x, want %#x", b.Len(), off, k, got, want)
			}
		}
	})
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ m, want int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4}, {17, 5},
	}
	for _, c := range cases {
		if got := BitsFor(c.m); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestLogHelpers(t *testing.T) {
	cases := []struct{ n, ceil, floor int }{
		{1, 0, 0}, {2, 1, 1}, {3, 2, 1}, {4, 2, 2}, {5, 3, 2}, {8, 3, 3}, {9, 4, 3}, {1024, 10, 10}, {1025, 11, 10},
	}
	for _, c := range cases {
		if got := Log2Ceil(c.n); got != c.ceil {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.n, got, c.ceil)
		}
		if got := Log2Floor(c.n); got != c.floor {
			t.Errorf("Log2Floor(%d) = %d, want %d", c.n, got, c.floor)
		}
	}
	if LogN(1) != 1 || LogLogN(2) != 1 {
		t.Error("LogN/LogLogN must floor at 1")
	}
	if LogN(1024) != 10 {
		t.Errorf("LogN(1024) = %d, want 10", LogN(1024))
	}
}

func TestLogPropertyQuick(t *testing.T) {
	err := quick.Check(func(raw uint16) bool {
		n := int(raw) + 1
		c, f := Log2Ceil(n), Log2Floor(n)
		if c < f || c > f+1 {
			return false
		}
		// 2^f <= n <= 2^c
		return (1<<uint(f)) <= n && n <= (1<<uint(c))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNaturalLogFloor(t *testing.T) {
	if NaturalLog(1) != 1 {
		t.Fatal("NaturalLog(1) must be floored to 1")
	}
	if v := NaturalLog(1000); v < 6.9 || v > 6.91 {
		t.Fatalf("NaturalLog(1000) = %v", v)
	}
}
