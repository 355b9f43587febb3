package graph

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/bitrand"
)

func TestClusterOrderBijection(t *testing.T) {
	src := bitrand.New(0x0c0de)
	for _, g := range []*Graph{
		Line(5), Ring(9), Clique(17), Star(64), Grid(8, 9),
		ErdosRenyi(src, 130, 0.07),
		RingChords(src, 300, 600),
	} {
		n := g.N()
		o := BuildClusterOrder(g)
		if len(o.NewID) != n || len(o.OldID) != n {
			t.Fatalf("n=%d: order arrays have lengths %d/%d", n, len(o.NewID), len(o.OldID))
		}
		seen := make([]bool, n)
		for u := 0; u < n; u++ {
			nu := o.NewID[u]
			if nu < 0 || nu >= n {
				t.Fatalf("n=%d: NewID[%d] = %d out of range", n, u, nu)
			}
			if seen[nu] {
				t.Fatalf("n=%d: NewID maps two nodes to %d", n, nu)
			}
			seen[nu] = true
			if o.OldID[nu] != u {
				t.Fatalf("n=%d: OldID[NewID[%d]] = %d, not the inverse", n, u, o.OldID[nu])
			}
		}
	}
}

func TestClusterOrderIsClusterMajor(t *testing.T) {
	src := bitrand.New(0x0c0df)
	g := RingChords(src, 256, 512)
	dec := DecompositionOf(g)
	o := BuildClusterOrder(g)
	// Within the cluster-major order, each cluster's members occupy one
	// contiguous id range, in ascending cluster-index order.
	prevCluster := -1
	for nu := 0; nu < g.N(); nu++ {
		k := dec.Of[o.OldID[nu]]
		if k < prevCluster {
			t.Fatalf("cluster-major id %d belongs to cluster %d after cluster %d", nu, k, prevCluster)
		}
		prevCluster = k
	}
}

// sparseRowBits reconstructs cluster-major row nu as a set of original node
// ids, using the order to translate bit positions back.
func sparseRowBits(m *SparseNeighborMasks, o *ClusterOrder, nu NodeID) []NodeID {
	var out []NodeID
	idx, words := m.BlockRow(nu)
	for i, wi := range idx {
		w := words[i]
		for w != 0 {
			nv := int(wi)<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			out = append(out, o.OldID[nv])
		}
	}
	return out
}

// checkSparseRows checks every row's exact membership in m, stored under
// order o, against the CSR adjacency of g.
func checkSparseRows(t *testing.T, g *Graph, o *ClusterOrder, m *SparseNeighborMasks) {
	t.Helper()
	n := g.N()
	if m.W() != bitrand.WordsFor(n) {
		t.Fatalf("n=%d: W = %d, want %d", n, m.W(), bitrand.WordsFor(n))
	}
	for u := 0; u < n; u++ {
		got := sparseRowBits(m, o, o.NewID[u])
		slices.Sort(got)
		if want := g.Neighbors(u); !slices.Equal(got, want) {
			t.Fatalf("n=%d node %d: sparse row %v, CSR %v", n, u, got, want)
		}
	}
}

// TestSparseMasksMatchCSR checks the G rows of each graph, under its own
// cluster order, against the CSR.
func TestSparseMasksMatchCSR(t *testing.T) {
	src := bitrand.New(0x5a5c)
	for _, g := range []*Graph{
		Line(5), Ring(9), Clique(17), Star(64), Grid(8, 9),
		ErdosRenyi(src, 130, 0.07),
		Circulant(100, 12),
		RingChords(src, 500, 1000),
	} {
		o := BuildClusterOrder(g)
		checkSparseRows(t, g, o, BuildSparseNeighborMasks(g, o))
	}
}

// TestSparseGPrimeMatchesDense checks the G' rows of an augmented dual,
// stored under the order derived from its G, against the CSR of G'.
func TestSparseGPrimeMatchesDense(t *testing.T) {
	src := bitrand.New(0x5a5f)
	d := AugmentDual(src, RingChords(src, 300, 600), 900)
	s := SparseMasksOf(d)
	checkSparseRows(t, d.GPrime(), s.Order, s.GPrimeMasks())
}

func TestSparseRowInvariants(t *testing.T) {
	src := bitrand.New(0x5a5d)
	g := RingChords(src, 1000, 3000)
	o := BuildClusterOrder(g)
	m := BuildSparseNeighborMasks(g, o)
	shift := m.RegionShift()
	if maxRegions := (m.W() + (1 << shift) - 1) >> shift; maxRegions > 64 {
		t.Fatalf("region shift %d leaves %d regions for w=%d, want ≤ 64", shift, maxRegions, m.W())
	}
	entries := 0
	for nu := 0; nu < g.N(); nu++ {
		idx, words := m.BlockRow(nu)
		entries += len(idx)
		var summ uint64
		for i, wi := range idx {
			if i > 0 && idx[i-1] >= wi {
				t.Fatalf("row %d: block indices not strictly ascending: %v", nu, idx)
			}
			if int(wi) >= m.W() {
				t.Fatalf("row %d: block index %d out of range [0,%d)", nu, wi, m.W())
			}
			if words[i] == 0 {
				t.Fatalf("row %d stores a zero block at index %d", nu, wi)
			}
			summ |= 1 << (uint(wi) >> shift)
		}
		if m.Summary(nu) != summ {
			t.Fatalf("row %d: summary %064b, want %064b", nu, m.Summary(nu), summ)
		}
	}
	if entries != m.Entries() {
		t.Fatalf("Entries() = %d, rows sum to %d", m.Entries(), entries)
	}
	if entries > 2*g.NumEdges() {
		t.Fatalf("%d entries exceed the 2E = %d bound", entries, 2*g.NumEdges())
	}
}

func TestSparseMasksOfMemoizes(t *testing.T) {
	src := bitrand.New(0x5a5e)
	d := AugmentDual(src, RingChords(src, 200, 400), 300)
	s1 := SparseMasksOf(d)
	s2 := SparseMasksOf(d)
	if s1 != s2 {
		t.Fatal("SparseMasksOf rebuilt the set for the same dual")
	}
	if s1.Order != ClusterOrderOf(d.G()) {
		t.Fatal("sparse set does not share the graph's memoized cluster order")
	}
	if gp := s1.GPrimeMasks(); gp != s1.GPrimeMasks() {
		t.Fatal("GPrimeMasks rebuilt the G' rows")
	} else if gp == s1.G {
		t.Fatal("distinct G' shares the G rows")
	}

	// Uniform duals must not build a second mask set for G' = G.
	u := UniformDual(Ring(64))
	su := SparseMasksOf(u)
	if su.GPrimeMasks() != su.G {
		t.Fatal("uniform dual built separate G' rows")
	}
}

func TestEstimateSparseMaskBytesBounds(t *testing.T) {
	src := bitrand.New(0x5a60)
	for _, d := range []*Dual{
		UniformDual(RingChords(src, 400, 800)),
		AugmentDual(src, RingChords(src, 400, 800), 600),
	} {
		s := SparseMasksOf(d)
		actual := int64(s.G.Bytes() + 16*d.N())
		if gp := s.GPrimeMasks(); gp != s.G {
			actual += int64(gp.Bytes())
		}
		est := EstimateSparseMaskBytes(d, true)
		if est < actual {
			t.Fatalf("estimate %d below actual footprint %d", est, actual)
		}
		if estG := EstimateSparseMaskBytes(d, false); estG > est {
			t.Fatalf("G-only estimate %d exceeds with-G' estimate %d", estG, est)
		}
	}
}
