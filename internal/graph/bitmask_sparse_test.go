package graph

import (
	"math/bits"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitrand"
)

// sparseRowBits reconstructs row u as the node ids of its set bits, in
// ascending order.
func sparseRowBits(m *SparseNeighborMasks, u NodeID) []NodeID {
	var out []NodeID
	idx, words := m.BlockRow(u)
	for i, wi := range idx {
		w := words[i]
		for w != 0 {
			out = append(out, int(wi)<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// checkSparseRows checks every row's exact membership in m against the CSR
// adjacency of g: row u must list g.Neighbors(u), in order.
func checkSparseRows(t *testing.T, g *Graph, m *SparseNeighborMasks) {
	t.Helper()
	n := g.N()
	if m.W() != bitrand.WordsFor(n) {
		t.Fatalf("n=%d: W = %d, want %d", n, m.W(), bitrand.WordsFor(n))
	}
	for u := 0; u < n; u++ {
		if got, want := sparseRowBits(m, u), g.Neighbors(u); !slices.Equal(got, want) {
			t.Fatalf("n=%d node %d: sparse row %v, CSR %v", n, u, got, want)
		}
	}
}

// TestSparseMasksMatchCSR checks the rows of each graph against its CSR.
func TestSparseMasksMatchCSR(t *testing.T) {
	src := bitrand.New(0x5a5c)
	for _, g := range []*Graph{
		Line(5), Ring(9), Clique(17), Star(64), Grid(8, 9),
		ErdosRenyi(src, 130, 0.07),
		Circulant(100, 12),
		RingChords(src, 500, 1000),
	} {
		checkSparseRows(t, g, BuildSparseNeighborMasks(g))
	}
}

// TestSparseGPrimeMatchesDense checks the memoized G' rows of an augmented
// dual against the CSR of G'.
func TestSparseGPrimeMatchesDense(t *testing.T) {
	src := bitrand.New(0x5a5f)
	d := AugmentDual(src, RingChords(src, 300, 600), 900)
	checkSparseRows(t, d.GPrime(), SparseMasksOf(d.GPrime()))
}

func TestSparseRowInvariants(t *testing.T) {
	src := bitrand.New(0x5a5d)
	g := RingChords(src, 1000, 3000)
	m := BuildSparseNeighborMasks(g)
	shift := m.RegionShift()
	if maxRegions := (m.W() + (1 << shift) - 1) >> shift; maxRegions > 64 {
		t.Fatalf("region shift %d leaves %d regions for w=%d, want ≤ 64", shift, maxRegions, m.W())
	}
	entries := 0
	for u := 0; u < g.N(); u++ {
		idx, words := m.BlockRow(u)
		entries += len(idx)
		var summ uint64
		for i, wi := range idx {
			if i > 0 && idx[i-1] >= wi {
				t.Fatalf("row %d: block indices not strictly ascending: %v", u, idx)
			}
			if int(wi) >= m.W() {
				t.Fatalf("row %d: block index %d out of range [0,%d)", u, wi, m.W())
			}
			if words[i] == 0 {
				t.Fatalf("row %d stores a zero block at index %d", u, wi)
			}
			summ |= 1 << (uint(wi) >> shift)
		}
		if m.Summary(u) != summ {
			t.Fatalf("row %d: summary %064b, want %064b", u, m.Summary(u), summ)
		}
	}
	if entries != m.Entries() {
		t.Fatalf("Entries() = %d, rows sum to %d", m.Entries(), entries)
	}
	if entries > 2*g.NumEdges() {
		t.Fatalf("%d entries exceed the 2E = %d bound", entries, 2*g.NumEdges())
	}
}

// TestSparseMasksOfMemoizes pins the per-graph memo: one row set per graph,
// built once even under 64 concurrent first readers, shared by a uniform
// dual's G and G' and distinct for an augmented dual's G'.
func TestSparseMasksOfMemoizes(t *testing.T) {
	src := bitrand.New(0x5a5e)
	d := AugmentDual(src, RingChords(src, 200, 400), 300)
	ptrs := make([]*SparseNeighborMasks, 64)
	var wg sync.WaitGroup
	for i := range ptrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ptrs[i] = SparseMasksOf(d.G())
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(ptrs); i++ {
		if ptrs[i] != ptrs[0] {
			t.Fatal("concurrent memo readers observed distinct row sets")
		}
	}
	if SparseMasksOf(d.G()) != ptrs[0] {
		t.Fatal("SparseMasksOf rebuilt the rows for the same graph")
	}
	if SparseMasksOf(d.GPrime()) == ptrs[0] {
		t.Fatal("an augmented dual's G' shares its G rows")
	}

	u := UniformDual(Ring(64))
	if SparseMasksOf(u.GPrime()) != SparseMasksOf(u.G()) {
		t.Fatal("a uniform dual's G' rows are not its G rows")
	}
}

// perfectMatching pairs u with u + n/2: every node has one neighbor, so
// every row holds exactly one block and the rows store 2E entries, the
// estimate's per-edge bound.
func perfectMatching(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n/2; u++ {
		b.AddEdge(u, u+n/2)
	}
	return b.Build()
}

func TestEstimateSparseMaskBytesBounds(t *testing.T) {
	src := bitrand.New(0x5a60)
	for _, d := range []*Dual{
		UniformDual(RingChords(src, 400, 800)),
		AugmentDual(src, RingChords(src, 400, 800), 600),
		UniformDual(perfectMatching(128)),
	} {
		g, gp := SparseMasksOf(d.G()), SparseMasksOf(d.GPrime())
		actual := int64(g.Bytes())
		if gp != g {
			actual += int64(gp.Bytes())
		}
		est := EstimateSparseMaskBytes(d, true)
		if est < actual {
			t.Fatalf("n=%d: estimate %d below actual footprint %d", d.N(), est, actual)
		}
		if estG := EstimateSparseMaskBytes(d, false); estG > est {
			t.Fatalf("G-only estimate %d exceeds with-G' estimate %d", estG, est)
		}
	}
}
