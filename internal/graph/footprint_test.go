package graph

import (
	"iter"
	"testing"
	"unsafe"

	"repro/internal/bitrand"
)

// storedArray is one array a substrate keeps: its entry size, length and
// capacity.
type storedArray struct {
	name     string
	elem     uintptr
	len, cap int
}

func arrayOf[T any](name string, xs []T) storedArray {
	var zero T
	return storedArray{name: name, elem: unsafe.Sizeof(zero), len: len(xs), cap: cap(xs)}
}

// dualArrays lists the CSR arrays of G, G′ and E′∖E.
func dualArrays(d *Dual) []storedArray {
	return []storedArray{
		arrayOf("G.offs", d.g.offs), arrayOf("G.adj", d.g.adj),
		arrayOf("G′.offs", d.gp.offs), arrayOf("G′.adj", d.gp.adj),
		arrayOf("extraOffs", d.extraOffs), arrayOf("extraAdj", d.extraAdj),
	}
}

// decompositionArrays lists a decomposition's per-node and per-cluster
// arrays; the per-color phase geometry is O(log n) and not listed.
func decompositionArrays(dc *Decomposition) []storedArray {
	return []storedArray{
		arrayOf("Of", dc.Of), arrayOf("Pos", dc.Pos), arrayOf("Parent", dc.Parent),
		arrayOf("Color", dc.Color), arrayOf("Center", dc.Center), arrayOf("Radius", dc.Radius),
		arrayOf("memberOffs", dc.memberOffs), arrayOf("members", dc.members),
	}
}

// TestSubstrateFootprint pins the storage of the engine benchmark's
// substrates, a degree-512 circulant and a ring with 2n chords, each with a
// sampled fringe, and of their decompositions: every stored array holds
// 4-byte entries, and no array keeps an unused tail above 1/slackShare of
// its allocation (see fit). Widening any of them fails here.
func TestSubstrateFootprint(t *testing.T) {
	circ := AugmentDual(bitrand.New(0x5ca1e04), Circulant(10000, 512), 20000)
	src := bitrand.New(0x5ca1e05)
	rc := AugmentDual(src, RingChords(src, 100000, 200000), 100000)
	for name, arrays := range map[string][]storedArray{
		"circ1e4":               dualArrays(circ),
		"circ1e4/decomposition": decompositionArrays(BuildDecomposition(circ.G())),
		"rc1e5":                 dualArrays(rc),
		"rc1e5/decomposition":   decompositionArrays(BuildDecomposition(rc.G())),
	} {
		for _, a := range arrays {
			if a.elem != 4 {
				t.Errorf("%s %s: %d-byte entries, want 4", name, a.name, a.elem)
			}
			if slack := a.cap - a.len; slack > a.cap/slackShare {
				t.Errorf("%s %s: %d unused of %d, above 1/%d", name, a.name, slack, a.cap, slackShare)
			}
		}
	}
}

// TestBuildSlack checks both sides of Build's copy rule on a 64-node ring
// (128 placed entries) plus repeated edges: dropping at most 1/16 of the
// placed entries reslices adj in place, and dropping more copies it to its
// exact size.
func TestBuildSlack(t *testing.T) {
	for _, c := range []struct {
		repeats int
		copied  bool
	}{
		{0, false},
		{4, false}, // 8 of 136 placed entries dropped: exactly 1/17
		{5, true},  // 10 of 138: above 1/16
	} {
		b := NewBuilder(64)
		for i := 0; i < 64; i++ {
			b.AddEdge(i, (i+1)%64)
		}
		for i := 0; i < c.repeats; i++ {
			b.AddEdge(2*i+1, 2*i)
		}
		g := b.Build()
		if len(g.adj) != 128 || g.NumEdges() != 64 {
			t.Fatalf("%d repeats: %d entries, %d edges", c.repeats, len(g.adj), g.NumEdges())
		}
		want := 128 + 2*c.repeats
		if c.copied {
			want = 128
		}
		if cap(g.adj) != want {
			t.Errorf("%d repeats: cap(adj) = %d, want %d", c.repeats, cap(g.adj), want)
		}
	}
}

// TestNeighborsIter checks the iterators against the row views: ranging
// over Neighbors and ExtraNeighbors yields exactly Row and ExtraRow widened
// to NodeID with their indices, stops at break, and allocates nothing.
func TestNeighborsIter(t *testing.T) {
	src := bitrand.New(0x17e5)
	d := AugmentDual(src, RingChords(src, 2000, 3000), 4000)
	g := d.G()
	for u := 0; u < d.N(); u++ {
		for _, c := range []struct {
			name string
			seq  iter.Seq2[int, NodeID]
			row  []int32
		}{
			{"Neighbors", g.Neighbors(u), g.Row(u)},
			{"ExtraNeighbors", d.ExtraNeighbors(u), d.ExtraRow(u)},
		} {
			k := 0
			for i, v := range c.seq {
				if i != k || k >= len(c.row) || v != NodeID(c.row[k]) {
					t.Fatalf("%s(%d) yields (%d, %d) at step %d, row %v", c.name, u, i, v, k, c.row)
				}
				k++
			}
			if k != len(c.row) {
				t.Fatalf("%s(%d) yields %d entries, row has %d", c.name, u, k, len(c.row))
			}
			k = 0
			for range c.seq {
				k++
				break
			}
			if want := min(1, len(c.row)); k != want {
				t.Fatalf("%s(%d) ran the body %d times past a break", c.name, u, k)
			}
		}
	}
	sum := 0
	allocs := testing.AllocsPerRun(10, func() {
		for u := 0; u < d.N(); u++ {
			for _, v := range g.Neighbors(u) {
				sum += v
			}
			for _, v := range d.ExtraNeighbors(u) {
				sum -= v
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ranging over every node's neighbors allocates %v times", allocs)
	}
}
