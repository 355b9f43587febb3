package bitrand

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sources with different seeds produced %d/64 equal values", same)
	}
}

func TestSplitDeterministicAndIndependent(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1, 2)
	c2 := parent.Split(1, 2)
	c3 := parent.Split(1, 3)
	if c1.Uint64() != c2.Uint64() {
		t.Fatal("same labels must give the same child stream")
	}
	diff := false
	for i := 0; i < 16; i++ {
		if c1.Uint64() != c3.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different labels produced identical child streams")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(11)
	b := New(11)
	_ = a.Split(5)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split must not consume parent randomness")
	}
}

func TestBitsAccounting(t *testing.T) {
	s := New(3)
	s.Bits(5)
	s.Bits(64)
	s.Bit()
	if got, want := s.Consumed(), uint64(5+64+1); got != want {
		t.Fatalf("Consumed = %d, want %d", got, want)
	}
}

func TestBitsRange(t *testing.T) {
	s := New(9)
	for k := uint(1); k <= 64; k++ {
		v := s.Bits(k)
		if k < 64 && v >= 1<<k {
			t.Fatalf("Bits(%d) = %d out of range", k, v)
		}
	}
	if got := s.Bits(0); got != 0 {
		t.Fatalf("Bits(0) = %d, want 0", got)
	}
}

func TestBitsUniformish(t *testing.T) {
	s := New(12345)
	const trials = 20000
	ones := 0
	for i := 0; i < trials; i++ {
		ones += int(s.Bit())
	}
	// Expect trials/2 +- 5 sigma; sigma = sqrt(trials)/2 ~ 70.
	if math.Abs(float64(ones)-trials/2) > 400 {
		t.Fatalf("bit bias: %d ones of %d", ones, trials)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(8)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonpositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	s := New(99)
	const n, trials = 8, 40000
	var counts [n]int
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %f", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(4)
	err := quick.Check(func(szRaw uint8) bool {
		n := int(szRaw%50) + 1
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoinEdges(t *testing.T) {
	s := New(5)
	for i := 0; i < 20; i++ {
		if s.Coin(0) {
			t.Fatal("Coin(0) returned true")
		}
		if !s.Coin(1) {
			t.Fatal("Coin(1) returned false")
		}
		if s.Coin(-0.5) {
			t.Fatal("Coin(-0.5) returned true")
		}
		if !s.Coin(1.5) {
			t.Fatal("Coin(1.5) returned false")
		}
	}
	if s.Consumed() != 0 {
		t.Fatalf("coins at p ≤ 0 and p ≥ 1 drew %d bits", s.Consumed())
	}

	// Probabilities at the edges of the 53-bit grid: every power of two the
	// draw resolves, the smallest subnormal, the largest p below 1, and grid
	// points k·2⁻⁵³ with their neighbours one ulp either side.
	var edges []float64
	for i := 1; i <= 53; i++ {
		edges = append(edges, math.Ldexp(1, -i))
	}
	edges = append(edges, math.SmallestNonzeroFloat64, math.Nextafter(1, 0))
	for _, k := range []float64{1, 2, 3, 12345, 1 << 52, 1<<52 + 1, 1<<53 - 2, 1<<53 - 1} {
		p := k / (1 << 53)
		edges = append(edges, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	for _, p := range edges {
		if p <= 0 || p >= 1 {
			continue
		}
		// The threshold is exact: draw t-1 is heads and draw t is tails
		// under the Float64 comparison.
		th := CoinThreshold(p)
		if th < 1 || th > 1<<53 || !(float64(th-1)/(1<<53) < p) || float64(th)/(1<<53) < p {
			t.Fatalf("CoinThreshold(%v) = %d: not the first 53-bit draw at or above p·2⁵³", p, th)
		}
		got, below, ref := New(0xc014), New(0xc014), New(0xc014)
		for i := 0; i < 200; i++ {
			want := float64(refBits(ref, 53))/(1<<53) < p
			if a, b := got.Coin(p), below.CoinBelow(th); a != want || b != want {
				t.Fatalf("p = %v, draw %d: Coin %v, CoinBelow %v, reference %v", p, i, a, b, want)
			}
			if got.Consumed() != ref.Consumed() || below.Consumed() != ref.Consumed() {
				t.Fatalf("p = %v, draw %d: consumed %d and %d, reference %d", p, i, got.Consumed(), below.Consumed(), ref.Consumed())
			}
		}
	}
	for _, k := range []uint64{1, 3, 12345, 1<<53 - 1} {
		if th := CoinThreshold(float64(k) / (1 << 53)); th != k {
			t.Fatalf("CoinThreshold(%d·2⁻⁵³) = %d, want %d", k, th, k)
		}
	}
	if th := CoinThreshold(math.SmallestNonzeroFloat64); th != 1 {
		t.Fatalf("CoinThreshold(smallest subnormal) = %d, want 1", th)
	}
	for _, p := range []float64{0, math.Copysign(0, -1), -1, math.NaN()} {
		if th := CoinThreshold(p); th != 0 {
			t.Fatalf("CoinThreshold(%v) = %d, want 0", p, th)
		}
	}
	for _, p := range []float64{1, 2, math.Inf(1)} {
		if th := CoinThreshold(p); th != 1<<53 {
			t.Fatalf("CoinThreshold(%v) = %d, want 2⁵³", p, th)
		}
	}
}

// TestCoinBelowAllocs is the //dglint:noalloc gate for CoinBelow, the
// engine's per-node coin: a draw allocates nothing, on the buffered path
// and on the refill path alike.
func TestCoinBelowAllocs(t *testing.T) {
	s := New(9)
	th := CoinThreshold(0.3)
	if got := testing.AllocsPerRun(1000, func() { s.CoinBelow(th) }); got != 0 {
		t.Fatalf("CoinBelow allocs/op = %v, want 0", got)
	}
}

// TestCohortCoinsAllocs is the //dglint:noalloc gate for CohortCoins, the
// engine's cohort coin loop: a run of draws allocates nothing when heads
// has room for the run.
func TestCohortCoinsAllocs(t *testing.T) {
	const n = 64
	streams, from := make([]Source, n), make([]int, n)
	for u := range streams {
		streams[u].Reseed(uint64(u))
	}
	heads := make([]int, 0, n)
	th := CoinThreshold(0.3)
	if got := testing.AllocsPerRun(1000, func() { heads = CohortCoins(heads[:0], streams, from, 0, n, 0, th) }); got != 0 {
		t.Fatalf("CohortCoins allocs/op = %v, want 0", got)
	}
}

func TestCoinProbability(t *testing.T) {
	s := New(77)
	const trials = 30000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Coin(0.25) {
			hits++
		}
	}
	want := 0.25 * trials
	if math.Abs(float64(hits)-want) > 6*math.Sqrt(want) {
		t.Fatalf("Coin(0.25): %d hits of %d", hits, trials)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(6)
	for i := 0; i < 1000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestShuffle(t *testing.T) {
	s := New(10)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	fresh := New(77)
	reused := New(1)
	reused.Bits(13) // dirty the buffer and the consumed account
	reused.Reseed(77)
	if reused.Consumed() != 0 {
		t.Fatal("Reseed must reset consumed bits")
	}
	for i := 0; i < 100; i++ {
		if fresh.Uint64() != reused.Uint64() {
			t.Fatalf("Reseed stream diverges from New at draw %d", i)
		}
	}
}

func TestSplitSeedMatchesSplit(t *testing.T) {
	parent := New(5)
	split := parent.Split(3, 9)
	derived := New(parent.SplitSeed(3, 9))
	for i := 0; i < 100; i++ {
		if split.Uint64() != derived.Uint64() {
			t.Fatalf("SplitSeed stream diverges from Split at draw %d", i)
		}
	}
}

// refBits is the loop Bits used to be, kept as its reference: it drains the
// buffer a chunk at a time, refilling one word whenever the buffer is empty.
func refBits(s *Source, k uint) uint64 {
	if k == 0 {
		return 0
	}
	if k > 64 {
		k = 64
	}
	s.consumed += uint64(k)
	var out uint64
	var have uint
	for have < k {
		if s.nbuf == 0 {
			s.buf = s.next64()
			s.nbuf = 64
		}
		take := k - have
		if take > s.nbuf {
			take = s.nbuf
		}
		out |= (s.buf & ((1 << take) - 1)) << have
		s.buf >>= take
		s.nbuf -= take
		have += take
	}
	return out
}

// coinRef is the 53-bit coin drawn through refBits: the draw as a
// Float64, compared with p.
func coinRef(ref *Source, p float64) bool {
	return float64(refBits(ref, 53))/(1<<53) < p
}

// drawBoth applies one draw, decoded from op and arg, to got through the
// Source API and to ref through refBits, and reports the first difference in
// the value drawn or in Consumed. The coin ops flip at p, or at p one ulp
// down or up, as arg selects.
func drawBoth(got, ref *Source, op, arg byte, p float64) (string, bool) {
	var a, b uint64
	var name string
	switch arg % 3 {
	case 1:
		p = math.Nextafter(p, math.Inf(-1))
	case 2:
		p = math.Nextafter(p, math.Inf(1))
	}
	bit := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	switch op % 6 {
	case 0:
		k := uint(arg) % 66 // 65 exercises the clamp
		name = "Bits"
		a, b = got.Bits(k), refBits(ref, k)
	case 1:
		name = "Uint64"
		a, b = got.Uint64(), ref.Uint64()
	case 2:
		name = "Float64"
		a = math.Float64bits(got.Float64())
		b = math.Float64bits(float64(refBits(ref, 53)) / (1 << 53))
	case 3:
		n := int(arg) + 1
		name = "Intn"
		a, b = uint64(got.Intn(n)), uint64(ref.Intn(n))
	case 4:
		// Coin draws nothing outside (0, 1), and 53 bits inside it.
		name = fmt.Sprintf("Coin[p=%v]", p)
		a = bit(got.Coin(p))
		switch {
		case p <= 0:
		case p >= 1:
			b = 1
		default:
			b = bit(coinRef(ref, p))
		}
	case 5:
		name = fmt.Sprintf("CoinBelow[p=%v]", p)
		a, b = bit(got.CoinBelow(CoinThreshold(p))), bit(coinRef(ref, p))
	}
	if a != b || got.Consumed() != ref.Consumed() {
		return fmt.Sprintf("%s(%d): value %#x vs reference %#x, consumed %d vs %d",
			name, arg, a, b, got.Consumed(), ref.Consumed()), false
	}
	return "", true
}

// TestBitsMatchesReference drives Bits(k) for every k in 0–64, at every
// buffer fill the walk reaches, interleaved with Uint64, Float64, Intn and
// coin draws, through both the Source API and its reference loop.
func TestBitsMatchesReference(t *testing.T) {
	got, ref := New(0xb175), New(0xb175)
	probs := []float64{0.5, 0.3, 1.0 / 3, math.Ldexp(1, -20), 0.999, 0, 1}
	for i := 0; i < 20000; i++ {
		op, arg := byte(0), byte(i%65)
		switch i % 7 {
		case 3:
			op = 2
		case 5:
			op, arg = 3, byte(i)
		case 6:
			op, arg = byte(4+i/7%2), byte(i/14)
		}
		if i%997 == 0 {
			op = 1
		}
		if msg, ok := drawBoth(got, ref, op, arg, probs[i/7%len(probs)]); !ok {
			t.Fatalf("draw %d: %s", i, msg)
		}
	}
}

// FuzzBits drives an arbitrary draw sequence, two bytes per draw, through
// the Source API and its reference loop, with the coin draws at the fuzzed
// probability p.
func FuzzBits(f *testing.F) {
	f.Add(uint64(1), 0.25, []byte{0, 5, 0, 64, 0, 0, 1, 0, 0, 63, 2, 0, 3, 9, 0, 1, 4, 0, 5, 1})
	f.Add(uint64(7), 0.7, []byte{0, 65, 0, 1, 0, 64, 0, 32, 0, 33, 2, 0, 2, 0, 5, 2, 4, 1})
	f.Add(uint64(3), math.Ldexp(1, -53), []byte{4, 0, 4, 1, 4, 2, 5, 0, 5, 1, 5, 2, 0, 11, 5, 0})
	f.Add(uint64(5), math.Nextafter(1, 0), []byte{5, 0, 5, 2, 4, 2, 0, 3, 4, 0})
	f.Fuzz(func(t *testing.T, seed uint64, p float64, ops []byte) {
		got, ref := New(seed), New(seed)
		for i := 0; i+1 < len(ops); i += 2 {
			if msg, ok := drawBoth(got, ref, ops[i], ops[i+1], p); !ok {
				t.Fatalf("draw %d: %s", i/2, msg)
			}
		}
	})
}

// FuzzCohortCoins runs CohortCoins against a loop of CoinBelow over twin
// streams, for a few rounds. Each stream is seeded from the fuzzed seed and
// its index and then draws a fuzzed Bits(k) prefix, k in 0–64, so its
// buffer can start at every phase 0–63. sel picks the threshold — 0, 1,
// 2⁵³−1, 2⁵³ or the fuzzed th — and, per stream, from below, at or above
// the round; the run [lo, hi) is fuzzed within the streams, empty, single
// and full runs included. The heads lists must be equal, and so must every
// stream's Consumed and its next Bits(k) draws for k = 1, 11, 53 and 64,
// which read the buffer each side left behind (Uint64 would discard it).
func FuzzCohortCoins(f *testing.F) {
	phases := make([]byte, 64)
	for i := range phases {
		phases[i] = byte(i)
	}
	f.Add(uint64(1), phases, uint64(1)<<52, []byte{4, 0, 1, 2}, byte(0), byte(64), uint8(3))
	f.Add(uint64(2), []byte{53, 11, 0, 64, 1}, uint64(0), []byte{0, 1}, byte(2), byte(0), uint8(2))
	f.Add(uint64(3), []byte{7, 63}, uint64(5), []byte{1, 0, 0, 2, 1}, byte(1), byte(1), uint8(4))
	f.Add(uint64(4), []byte{0}, uint64(0), []byte{2, 0}, byte(0), byte(9), uint8(1))
	f.Add(uint64(5), []byte{12, 40, 52, 54}, uint64(0), []byte{3, 1, 1}, byte(3), byte(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, prefix []byte, th uint64, sel []byte, lo, span byte, rounds uint8) {
		n := len(prefix)
		if n == 0 || n > 256 || len(sel) == 0 {
			return
		}
		got, ref := make([]Source, n), make([]Source, n)
		for u := range got {
			got[u].Reseed(seed + uint64(u))
			got[u].Bits(uint(prefix[u]) % 65)
			ref[u] = got[u]
		}
		start := int(lo) % (n + 1)
		end := start + int(span)%(n-start+1)
		from := make([]int, n)
		for round := 0; round < int(rounds%4)+1; round++ {
			r := 10 + round
			for u := range from {
				from[u] = r + int(sel[(u+round)%len(sel)]%3) - 1
			}
			t0 := [...]uint64{0, 1, 1<<53 - 1, 1 << 53, th}[int(sel[round%len(sel)])%5]
			heads := CohortCoins(append(make([]int, 0, n+1), -1), got, from, start, end, r, t0)
			want := []int{-1}
			for u := start; u < end; u++ {
				if from[u] <= r && ref[u].CoinBelow(t0) {
					want = append(want, u)
				}
			}
			if !slices.Equal(heads, want) {
				t.Fatalf("round %d, run [%d, %d), threshold %d: heads %v, CoinBelow loop %v", r, start, end, t0, heads, want)
			}
			for u := range got {
				if got[u].Consumed() != ref[u].Consumed() {
					t.Fatalf("round %d: stream %d consumed %d bits, CoinBelow loop %d", r, u, got[u].Consumed(), ref[u].Consumed())
				}
			}
		}
		for u := range got {
			for _, k := range []uint{1, 11, 53, 64} {
				if a, b := got[u].Bits(k), ref[u].Bits(k); a != b {
					t.Fatalf("stream %d: next Bits(%d) %#x, CoinBelow loop %#x", u, k, a, b)
				}
			}
		}
	})
}
