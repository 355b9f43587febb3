package graph

import (
	"testing"

	"repro/internal/bitrand"
)

// refChurn is a naive map-of-sets mirror of the Revision semantics: the
// churn-applied CSR dual must equal a from-scratch rebuild of this
// structure after every epoch.
type refChurn struct {
	n        int
	g, gp    *refGraph
	baseG    *refGraph
	baseGP   *refGraph
	departed []bool
}

func newRefChurn(g, gp *refGraph) *refChurn {
	rc := &refChurn{n: g.n, baseG: g, baseGP: gp, departed: make([]bool, g.n)}
	rc.g, rc.gp = cloneRef(g), cloneRef(gp)
	return rc
}

func cloneRef(r *refGraph) *refGraph {
	out := newRefGraph(r.n)
	for u, s := range r.adj {
		for v := range s {
			out.addEdge(u, v)
		}
	}
	return out
}

func (rc *refChurn) removeEdge(r *refGraph, u, v NodeID) {
	delete(r.adj[u], v)
	delete(r.adj[v], u)
}

func (rc *refChurn) apply(op ChurnOp) {
	switch op.Kind {
	case ChurnAddEdge, ChurnRemoveEdge, ChurnAddExtraEdge, ChurnRemoveExtraEdge:
		if rc.departed[op.U] || rc.departed[op.V] {
			return
		}
		switch op.Kind {
		case ChurnAddEdge:
			rc.g.addEdge(op.U, op.V)
			rc.gp.addEdge(op.U, op.V)
		case ChurnRemoveEdge:
			rc.removeEdge(rc.g, op.U, op.V)
		case ChurnAddExtraEdge:
			rc.gp.addEdge(op.U, op.V)
		case ChurnRemoveExtraEdge:
			rc.removeEdge(rc.g, op.U, op.V)
			rc.removeEdge(rc.gp, op.U, op.V)
		}
	case ChurnLeave:
		if rc.departed[op.U] {
			return
		}
		rc.departed[op.U] = true
		for v := range rc.gp.adj[op.U] {
			rc.removeEdge(rc.gp, op.U, v)
			rc.removeEdge(rc.g, op.U, v)
		}
	case ChurnJoin:
		if !rc.departed[op.U] {
			return
		}
		rc.departed[op.U] = false
		for v := range rc.baseG.adj[op.U] {
			if !rc.departed[v] {
				rc.g.addEdge(op.U, v)
				rc.gp.addEdge(op.U, v)
			}
		}
		for v := range rc.baseGP.adj[op.U] {
			if !rc.departed[v] {
				rc.gp.addEdge(op.U, v)
			}
		}
	}
}

// checkRevisionAgainstRef rebuilds the reference's dual from scratch and
// requires the incrementally churned CSR revision to match it exactly:
// G rows, E'\E rows, departure flags.
func checkRevisionAgainstRef(t *testing.T, rv *Revision, rc *refChurn) {
	t.Helper()
	d := rv.Dual()
	checkGraphAgainstRef(t, d.G(), rc.g)
	checkGraphAgainstRef(t, d.GPrime(), rc.gp)
	for u := 0; u < rc.n; u++ {
		if rv.Departed(u) != rc.departed[u] {
			t.Fatalf("Departed(%d) = %v, want %v", u, rv.Departed(u), rc.departed[u])
		}
		want := make([]NodeID, 0)
		for _, v := range rc.gp.neighbors(u) {
			if _, inG := rc.g.adj[u][v]; !inG {
				want = append(want, v)
			}
		}
		if got := d.ExtraRow(u); !equalIDs(got, want) {
			t.Fatalf("ExtraRow(%d) = %v, want %v", u, got, want)
		}
	}
}

// randomChurnOps draws a deterministic op list touching every kind.
func randomChurnOps(src *bitrand.Source, n, count int) []ChurnOp {
	kinds := []ChurnKind{ChurnAddEdge, ChurnRemoveEdge, ChurnAddExtraEdge,
		ChurnRemoveExtraEdge, ChurnLeave, ChurnJoin}
	ops := make([]ChurnOp, 0, count)
	for len(ops) < count {
		op := ChurnOp{Kind: kinds[src.Intn(len(kinds))], U: src.Intn(n), V: src.Intn(n)}
		switch op.Kind {
		case ChurnLeave, ChurnJoin:
			op.V = 0
		default:
			if op.U == op.V {
				continue
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// TestRevisionEquivalenceRandomOps pins churn-applied CSR revisions against
// a rebuild-from-scratch map-of-sets reference for randomized op sequences,
// chained across several epochs per base (the dynamic-topology mirror of
// TestCSREquivalenceRandomDuals).
func TestRevisionEquivalenceRandomOps(t *testing.T) {
	src := bitrand.New(0xc1124)
	for trial := 0; trial < 30; trial++ {
		n := 2 + src.Intn(30)
		pG := src.Float64() * 0.4
		pExtra := src.Float64() * 0.4
		gRef, gpRef := newRefGraph(n), newRefGraph(n)
		gb, gpb := NewBuilder(n), NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				inG := src.Coin(pG)
				if inG {
					gRef.addEdge(u, v)
					gb.AddEdge(u, v)
				}
				if inG || src.Coin(pExtra) {
					gpRef.addEdge(u, v)
					gpb.AddEdge(u, v)
				}
			}
		}
		base := MustDual(gb.Build(), gpb.Build())
		rv := NewRevision(base)
		rc := newRefChurn(gRef, gpRef)
		epochs := 1 + src.Intn(4)
		for e := 0; e < epochs; e++ {
			ops := randomChurnOps(src, n, 1+src.Intn(3*n))
			next, err := rv.Apply(ops)
			if err != nil {
				t.Fatalf("trial %d epoch %d: Apply: %v", trial, e, err)
			}
			for _, op := range ops {
				rc.apply(op)
			}
			checkRevisionAgainstRef(t, next, rc)
			// The previous revision must be untouched (immutability).
			if rv.Dual().G().NumEdges() != rvEdges(rv) {
				t.Fatalf("trial %d epoch %d: prior revision mutated", trial, e)
			}
			rv = next
		}
	}
}

// rvEdges re-reads a revision's G edge count through its CSR arrays, as a
// cheap self-consistency probe.
func rvEdges(rv *Revision) int {
	offs, _ := rv.Dual().G().CSR()
	return int(offs[len(offs)-1]) / 2
}

// TestRevisionRejectsBadOps checks that malformed ops fail loudly instead of
// silently vanishing from a deterministic schedule.
func TestRevisionRejectsBadOps(t *testing.T) {
	d, _ := DualClique(8, 1)
	for _, ops := range [][]ChurnOp{
		{{Kind: ChurnAddEdge, U: -1, V: 2}},
		{{Kind: ChurnAddEdge, U: 0, V: 8}},
		{{Kind: ChurnRemoveEdge, U: 3, V: 3}},
		{{Kind: ChurnLeave, U: 99}},
		{{Kind: ChurnJoin, U: -2}},
		{{Kind: ChurnKind(0), U: 0, V: 1}},
	} {
		if _, err := ApplyChurn(d, ops); err == nil {
			t.Errorf("ops %v accepted, want error", ops)
		}
	}
}

// TestRevisionDemotesAndRestores walks the documented edge lifecycle on a
// concrete dual: remove-edge demotes a reliable link to E'\E, remove-extra
// deletes it outright, leave isolates a node, join restores its base
// adjacency.
func TestRevisionDemotesAndRestores(t *testing.T) {
	gb := NewBuilder(4)
	gb.AddEdge(0, 1)
	gb.AddEdge(1, 2)
	gb.AddEdge(2, 3)
	gpb := NewBuilder(4)
	gpb.AddEdge(0, 1)
	gpb.AddEdge(1, 2)
	gpb.AddEdge(2, 3)
	gpb.AddEdge(0, 3) // unreliable only
	base := MustDual(gb.Build(), gpb.Build())

	rv, err := NewRevision(base).Apply([]ChurnOp{{Kind: ChurnRemoveEdge, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d := rv.Dual()
	if d.G().HasEdge(1, 2) {
		t.Fatal("remove-edge left (1,2) in G")
	}
	if !d.GPrime().HasEdge(1, 2) {
		t.Fatal("remove-edge dropped (1,2) from G'; want demotion to E'\\E")
	}

	rv2, err := rv.Apply([]ChurnOp{{Kind: ChurnLeave, U: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rv2.Dual().GPrime().Degree(3); got != 0 {
		t.Fatalf("departed node has G' degree %d, want 0", got)
	}
	if !rv2.Departed(3) {
		t.Fatal("Departed(3) = false after leave")
	}

	rv3, err := rv2.Apply([]ChurnOp{{Kind: ChurnJoin, U: 3}})
	if err != nil {
		t.Fatal(err)
	}
	d3 := rv3.Dual()
	if !d3.G().HasEdge(2, 3) || !d3.GPrime().HasEdge(0, 3) {
		t.Fatal("join did not restore node 3's base adjacency")
	}
	// The (1,2) demotion from the first epoch must persist: join restores
	// only the joining node's own edges.
	if d3.G().HasEdge(1, 2) || !d3.GPrime().HasEdge(1, 2) {
		t.Fatal("join disturbed unrelated demoted edge (1,2)")
	}
}

// FuzzRevision drives Apply with arbitrary op streams over a small base dual
// and checks the churned CSR dual against the map-of-sets reference — the
// churn-layer counterpart of FuzzBuilder. Bytes decode to (kind, u, v)
// triples; undecodable ops are skipped rather than rejected so the fuzzer
// explores deep op lists.
func FuzzRevision(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 4, 0, 0, 5, 0, 0})       // add, leave, join node 0
	f.Add([]byte{1, 0, 1, 2, 0, 3, 3, 1, 2})       // remove, add-extra, remove-extra
	f.Add([]byte{4, 2, 0, 0, 2, 3, 4, 3, 0, 5, 2}) // churn around departures
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 6
		gb, gpb := NewBuilder(n), NewBuilder(n)
		gRef, gpRef := newRefGraph(n), newRefGraph(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if (u+v)%2 == 0 {
					gb.AddEdge(u, v)
					gRef.addEdge(u, v)
				}
				gpb.AddEdge(u, v)
				gpRef.addEdge(u, v)
			}
		}
		base := MustDual(gb.Build(), gpb.Build())
		rv := NewRevision(base)
		rc := newRefChurn(gRef, gpRef)
		var ops []ChurnOp
		for i := 0; i+2 < len(data); i += 3 {
			op := ChurnOp{Kind: ChurnKind(int(data[i])%6 + 1), U: int(data[i+1]) % n, V: int(data[i+2]) % n}
			if (op.Kind != ChurnLeave && op.Kind != ChurnJoin) && op.U == op.V {
				continue
			}
			ops = append(ops, op)
		}
		next, err := rv.Apply(ops)
		if err != nil {
			t.Fatalf("Apply(%v): %v", ops, err)
		}
		for _, op := range ops {
			rc.apply(op)
		}
		checkRevisionAgainstRef(t, next, rc)
	})
}
