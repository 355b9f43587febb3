package graph

import (
	"sort"
	"testing"

	"repro/internal/bitrand"
)

// refGraph is a naive map-of-sets adjacency reference: exactly the structure
// the CSR core replaced. The equivalence tests rebuild it next to every CSR
// graph and require identical answers.
type refGraph struct {
	n   int
	adj []map[NodeID]struct{}
}

func newRefGraph(n int) *refGraph {
	r := &refGraph{n: n, adj: make([]map[NodeID]struct{}, n)}
	for i := range r.adj {
		r.adj[i] = make(map[NodeID]struct{})
	}
	return r
}

func (r *refGraph) addEdge(u, v NodeID) {
	if u == v || u < 0 || v < 0 || u >= r.n || v >= r.n {
		return
	}
	r.adj[u][v] = struct{}{}
	r.adj[v][u] = struct{}{}
}

func (r *refGraph) neighbors(u NodeID) []NodeID {
	out := make([]NodeID, 0, len(r.adj[u]))
	for v := range r.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func (r *refGraph) numEdges() int {
	total := 0
	for _, s := range r.adj {
		total += len(s)
	}
	return total / 2
}

func equalIDs(a []int32, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if NodeID(a[i]) != b[i] {
			return false
		}
	}
	return true
}

// checkGraphAgainstRef asserts that a CSR graph answers Row, Degree,
// HasEdge, NumEdges and CSR consistently with the reference.
func checkGraphAgainstRef(t *testing.T, g *Graph, ref *refGraph) {
	t.Helper()
	if g.N() != ref.n {
		t.Fatalf("N = %d, want %d", g.N(), ref.n)
	}
	if g.NumEdges() != ref.numEdges() {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), ref.numEdges())
	}
	offs, adj := g.CSR()
	if len(offs) != ref.n+1 {
		t.Fatalf("len(offs) = %d, want %d", len(offs), ref.n+1)
	}
	if int(offs[ref.n]) != len(adj) || len(adj) != 2*g.NumEdges() {
		t.Fatalf("CSR shape: offs[n]=%d len(adj)=%d edges=%d", offs[ref.n], len(adj), g.NumEdges())
	}
	for u := 0; u < ref.n; u++ {
		want := ref.neighbors(u)
		got := g.Row(u)
		if !equalIDs(got, want) {
			t.Fatalf("Row(%d) = %v, want %v", u, got, want)
		}
		if g.Degree(u) != len(want) {
			t.Fatalf("Degree(%d) = %d, want %d", u, g.Degree(u), len(want))
		}
		for v := 0; v < ref.n; v++ {
			_, wantEdge := ref.adj[u][v]
			if g.HasEdge(u, v) != wantEdge {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, g.HasEdge(u, v), wantEdge)
			}
		}
	}
}

// TestCSREquivalenceRandomDuals builds random duals — random G, random
// superset G' — and checks Row, ExtraRow and Degree against the map-of-sets
// reference.
func TestCSREquivalenceRandomDuals(t *testing.T) {
	src := bitrand.New(0xc5a)
	for trial := 0; trial < 40; trial++ {
		n := 1 + src.Intn(40)
		pG := src.Float64() * 0.4
		pExtra := src.Float64() * 0.4

		gRef := newRefGraph(n)
		gb := NewBuilder(n)
		gpRef := newRefGraph(n)
		gpb := NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				inG := src.Coin(pG)
				if inG {
					gRef.addEdge(u, v)
					gb.AddEdge(u, v)
					// Duplicate adds must be invisible.
					gb.AddEdge(v, u)
				}
				if inG || src.Coin(pExtra) {
					gpRef.addEdge(u, v)
					gpb.AddEdge(u, v)
				}
			}
		}
		g, gp := gb.Build(), gpb.Build()
		checkGraphAgainstRef(t, g, gRef)
		checkGraphAgainstRef(t, gp, gpRef)

		d, err := NewDual(g, gp)
		if err != nil {
			t.Fatalf("trial %d: NewDual: %v", trial, err)
		}
		for u := 0; u < n; u++ {
			// Reference extra adjacency: G' neighbors not in G.
			want := make([]NodeID, 0)
			for _, v := range gpRef.neighbors(u) {
				if _, inG := gRef.adj[u][v]; !inG {
					want = append(want, v)
				}
			}
			if got := d.ExtraRow(u); !equalIDs(got, want) {
				t.Fatalf("trial %d: ExtraRow(%d) = %v, want %v", trial, u, got, want)
			}
		}
		if want := gpRef.numEdges() - gRef.numEdges(); d.NumExtraEdges() != want {
			t.Fatalf("trial %d: NumExtraEdges = %d, want %d", trial, d.NumExtraEdges(), want)
		}
	}
}

// TestNewDualRejectsNonSubset checks the merge-walk subset validation on
// both violation shapes: a G neighbor below the current G' row position and
// one past the row's end.
func TestNewDualRejectsNonSubset(t *testing.T) {
	// G: {0-1, 2-3}; G': {2-3} only — 0-1 violates, with node 0's G row
	// holding a neighbor smaller than anything in its (empty) G' row.
	gb := NewBuilder(4)
	gb.AddEdge(0, 1)
	gb.AddEdge(2, 3)
	gpb := NewBuilder(4)
	gpb.AddEdge(2, 3)
	if _, err := NewDual(gb.Build(), gpb.Build()); err == nil {
		t.Fatal("missing-low-edge dual accepted")
	}
	// G: {0-3}; G': {0-1} — node 0's G row ends past its G' row.
	gb2 := NewBuilder(4)
	gb2.AddEdge(0, 3)
	gpb2 := NewBuilder(4)
	gpb2.AddEdge(0, 1)
	if _, err := NewDual(gb2.Build(), gpb2.Build()); err == nil {
		t.Fatal("missing-high-edge dual accepted")
	}
}
