package graph

import (
	"math/bits"
	"reflect"
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
// adjacency of g: row u must list g.Row(u), in order.
func checkSparseRows(t *testing.T, g *Graph, m *SparseNeighborMasks) {
	t.Helper()
	n := g.N()
	if m.W() != bitrand.WordsFor(n) {
		t.Fatalf("n=%d: W = %d, want %d", n, m.W(), bitrand.WordsFor(n))
	}
	for u := 0; u < n; u++ {
		if got, want := sparseRowBits(m, u), g.Row(u); !equalIDs(want, got) {
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
	entries := 0
	for u := 0; u < g.N(); u++ {
		idx, words := m.BlockRow(u)
		entries += len(idx)
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

// unionGraph builds G ∪ sel(E'\E) of d out as a graph of its own: the
// reference for the selected rows.
func unionGraph(d *Dual, sel EdgeSelector) *Graph {
	b := NewBuilder(d.N())
	d.G().ForEachEdge(func(u, v NodeID) { b.AddEdge(u, v) })
	for u := 0; u < d.N(); u++ {
		for _, v := range d.ExtraNeighbors(u) {
			if u < v && sel.Includes(u, v) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// checkSelectedRows requires m, rebuilt for (d, sel), to equal the rows
// BuildSparseNeighborMasks builds from the union graph: the same offsets,
// block indices and block words, entry for entry.
func checkSelectedRows(t *testing.T, m *SparseNeighborMasks, d *Dual, sel EdgeSelector) {
	t.Helper()
	m.BuildSelected(d, sel)
	want := BuildSparseNeighborMasks(unionGraph(d, sel))
	if m.W() != want.W() {
		t.Fatalf("n=%d: W = %d, want %d", d.N(), m.W(), want.W())
	}
	gotOffs, gotIdx, gotWords := m.Rows()
	wantOffs, wantIdx, wantWords := want.Rows()
	if !reflect.DeepEqual(gotOffs, wantOffs) || !slices.Equal(gotIdx, wantIdx) || !slices.Equal(gotWords, wantWords) {
		for u := 0; u < d.N(); u++ {
			if got, want := sparseRowBits(m, u), sparseRowBits(want, u); !slices.Equal(got, want) {
				t.Fatalf("n=%d node %d: selected row %v, union row %v", d.N(), u, got, want)
			}
		}
		t.Fatalf("n=%d: selected rows pack differently from the union graph's", d.N())
	}
}

// everyOtherExtra selects every other E'\E edge in node order, as the
// SCALE-n adversary rows do.
func everyOtherExtra(d *Dual) *SelectSet {
	var edges []EdgeKey
	keep := true
	for u := 0; u < d.N(); u++ {
		for _, v := range d.ExtraNeighbors(u) {
			if v > u {
				if keep {
					edges = append(edges, EdgeKey{U: u, V: v})
				}
				keep = !keep
			}
		}
	}
	return NewSelectSet(edges)
}

// TestSelectedMasksMatchUnion checks the static rows of G ∪ S against the
// rows of the union graph built out, for every selector shape, on
// circulants (whose extras mostly share blocks with G's rows) and on random
// duals, rebuilding one value throughout so the reuse of its storage is
// covered too.
func TestSelectedMasksMatchUnion(t *testing.T) {
	src := bitrand.New(0x5e1c)
	duals := map[string]*Dual{
		"circulant":      AugmentDual(src, Circulant(600, 40), 900),
		"circulant-wide": AugmentDual(src, Circulant(2000, 128), 3000),
		"ring-chords":    AugmentDual(src, RingChords(src, 700, 1400), 1500),
		"erdos-renyi":    AugmentDual(src, ErdosRenyi(src, 300, 0.02), 2500),
		"no-extras":      UniformDual(Circulant(200, 16)),
	}
	var m SparseNeighborMasks
	for _, name := range []string{"circulant", "circulant-wide", "ring-chords", "erdos-renyi", "no-extras", "circulant"} {
		d := duals[name]
		sels := map[string]EdgeSelector{
			"set":       everyOtherExtra(d),
			"func":      SelectFunc{F: func(u, v NodeID) bool { return (u*v+u+v)%3 != 0 }},
			"cross-cut": SelectCrossCut{InA: func(u NodeID) bool { return u%5 < 2 }},
			"empty":     NewSelectSet(nil),
			"full":      SelectFunc{F: func(u, v NodeID) bool { return true }},
		}
		for _, sk := range []string{"set", "func", "cross-cut", "empty", "full"} {
			t.Run(name+"/"+sk, func(t *testing.T) { checkSelectedRows(t, &m, d, sels[sk]) })
		}
	}
}

// FuzzSelectedMasks is the differential fuzzer for the static rows: random
// duals over random graphs, a hashed selection of random density, and the
// rows rebuilt into one value, first for a larger dual, against the union
// graph's rows. Wired into the CI fuzz-smoke job.
func FuzzSelectedMasks(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint16(40), uint16(120), uint8(128))
	f.Add(uint64(2), uint16(200), uint16(0), uint16(300), uint8(0))
	f.Add(uint64(3), uint16(33), uint16(50), uint16(80), uint8(255))
	f.Add(uint64(4), uint16(500), uint16(10), uint16(900), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, n, chords, extra uint16, density uint8) {
		nn := 3 + int(n)%700
		src := bitrand.New(seed)
		d := AugmentDual(src, RingChords(src, nn, int(chords)%1024), int(extra)%2048)
		sel := SelectFunc{F: func(u, v NodeID) bool {
			k := MakeEdgeKey(u, v)
			return bitrand.Hash64(seed, uint64(k.U), uint64(k.V))%256 < uint64(density)
		}}
		var m SparseNeighborMasks
		checkSelectedRows(t, &m, AugmentDual(src, Circulant(nn+64, 8), 200), sel)
		checkSelectedRows(t, &m, d, sel)
	})
}
