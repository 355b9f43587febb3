package graph

import (
	"slices"
	"testing"

	"repro/internal/bitrand"
)

// FuzzBuilder drives the counting Builder with arbitrary edge streams —
// duplicates, self-loops, out-of-range endpoints, both orientations — and
// checks the built CSR graph against the map-of-sets reference. Endpoint
// bytes are offset by -4 so the fuzzer reaches negative ids without needing
// wide integers.
func FuzzBuilder(f *testing.F) {
	// Seed corpus: the interesting shapes named in the Builder contract.
	f.Add(4, []byte{})                                   // empty graph
	f.Add(4, []byte{4, 5, 4, 5, 5, 4, 4, 5})             // duplicate edges, both orientations
	f.Add(4, []byte{4, 4, 5, 5, 6, 6})                   // self-loops
	f.Add(4, []byte{0, 5, 5, 0, 4, 200, 200, 201})       // negative and past-n endpoints
	f.Add(6, []byte{4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 4}) // a cycle
	f.Add(1, []byte{4, 4, 4, 5})                         // single node: everything drops
	f.Add(0, []byte{4, 5})                               // empty vertex set
	f.Add(64, []byte{4, 67, 67, 4, 4, 67, 30, 31, 31, 30, 30, 30})

	f.Fuzz(func(t *testing.T, n int, data []byte) {
		if n < 0 || n > 128 {
			return
		}
		b := NewBuilder(n)
		ref := newRefGraph(n)
		for i := 0; i+1 < len(data); i += 2 {
			u, v := int(data[i])-4, int(data[i+1])-4
			b.AddEdge(u, v)
			ref.addEdge(u, v)
			// Builder.HasEdge must agree with the reference as edges stream
			// in (modulo canonical ordering, which both sides apply).
			if u >= 0 && v >= 0 && u < n && v < n && u != v {
				if _, want := ref.adj[u][v]; b.HasEdge(u, v) != want {
					t.Fatalf("Builder.HasEdge(%d,%d) = %v, want %v", u, v, b.HasEdge(u, v), want)
				}
			}
		}
		checkGraphAgainstRef(t, b.Build(), ref)
	})
}

// FuzzAugmentDual checks AugmentDual, which builds only the sampled pairs
// and merges them into G's rows, dropping the draws G already holds in the
// merge, against the construction it replaced: one Builder over G's edges
// plus the draws that miss G, then NewDual's difference walk. G is built
// from fuzzed edge bytes as in FuzzBuilder. The G′ and E′∖E CSR arrays,
// NumExtraEdges and UnionComplete must match, and both sources must be left
// at the same next draw.
func FuzzAugmentDual(f *testing.F) {
	var complete []byte // every pair of 5 nodes, so every draw is dropped
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			complete = append(complete, byte(u+4), byte(v+4))
		}
	}
	var dense []byte // two thirds of the pairs of 12 nodes: most draws hit G
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			if (u+v)%3 != 0 {
				dense = append(dense, byte(u+4), byte(v+4))
			}
		}
	}
	f.Add(uint8(8), []byte{4, 5, 5, 6, 6, 7}, uint16(10), uint64(1))
	f.Add(uint8(12), dense, uint16(60), uint64(7))
	f.Add(uint8(1), []byte{}, uint16(5), uint64(2)) // single node: every draw is a self-loop
	f.Add(uint8(5), complete, uint16(40), uint64(3))
	f.Add(uint8(6), []byte{4, 5, 5, 4}, uint16(400), uint64(4)) // enough draws to complete G′
	f.Add(uint8(0), []byte{}, uint16(0), uint64(5))
	f.Add(uint8(48), []byte{4, 51, 30, 31, 200, 4}, uint16(1000), uint64(6))

	f.Fuzz(func(t *testing.T, nb uint8, data []byte, extra uint16, seed uint64) {
		n, k := int(nb)%49, int(extra)%2048
		if n == 0 {
			k = 0 // Intn(0) panics on both paths alike
		}
		gb := NewBuilder(n)
		for i := 0; i+1 < len(data); i += 2 {
			gb.AddEdge(int(data[i])-4, int(data[i+1])-4)
		}
		g := gb.Build()
		src, refSrc := bitrand.New(seed), bitrand.New(seed)
		d := AugmentDual(src, g, k)

		rb := NewBuilder(n)
		g.ForEachEdge(rb.AddEdge)
		for i := 0; i < k; i++ {
			u, v := refSrc.Intn(n), refSrc.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				rb.AddEdge(u, v)
			}
		}
		ref, err := NewDual(g, rb.Build())
		if err != nil {
			t.Fatal(err)
		}

		if d.G() != g {
			t.Fatal("AugmentDual replaced the reliable graph")
		}
		gotOffs, gotAdj := d.GPrime().CSR()
		wantOffs, wantAdj := ref.GPrime().CSR()
		if !slices.Equal(gotOffs, wantOffs) || !slices.Equal(gotAdj, wantAdj) {
			t.Fatalf("G′ CSR = %v %v, want %v %v", gotOffs, gotAdj, wantOffs, wantAdj)
		}
		if d.GPrime().NumEdges() != ref.GPrime().NumEdges() {
			t.Fatalf("G′ has %d edges, want %d", d.GPrime().NumEdges(), ref.GPrime().NumEdges())
		}
		gotOffs, gotAdj = d.ExtraCSR()
		wantOffs, wantAdj = ref.ExtraCSR()
		if !slices.Equal(gotOffs, wantOffs) || !slices.Equal(gotAdj, wantAdj) {
			t.Fatalf("E′∖E CSR = %v %v, want %v %v", gotOffs, gotAdj, wantOffs, wantAdj)
		}
		if d.NumExtraEdges() != ref.NumExtraEdges() {
			t.Fatalf("NumExtraEdges = %d, want %d", d.NumExtraEdges(), ref.NumExtraEdges())
		}
		if d.UnionComplete() != ref.UnionComplete() {
			t.Fatalf("UnionComplete = %v, want %v", d.UnionComplete(), ref.UnionComplete())
		}
		if got, want := src.Uint64(), refSrc.Uint64(); got != want {
			t.Fatalf("next draw %#x, want %#x", got, want)
		}
	})
}
