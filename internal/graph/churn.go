package graph

import "fmt"

// Topology churn: a Revision derives a new immutable CSR dual graph from a
// base dual plus a deterministic list of churn operations — node departures
// and rejoins, edge additions and removals on G and G'. Each revision is a
// full Dual in its own right (its own CSR arrays, its own memoized clique
// cover), so every zero-copy contract of the static core holds per revision;
// the scenario layer precompiles one revision per epoch and the engine swaps
// its hoisted views at epoch boundaries.

// ChurnKind selects a churn operation.
type ChurnKind int

const (
	// ChurnAddEdge adds (U, V) to the reliable graph G — and, to preserve
	// E ⊆ E', to G' as well.
	ChurnAddEdge ChurnKind = iota + 1
	// ChurnRemoveEdge removes (U, V) from G. The edge remains in G': a
	// formerly reliable link demoted to adversary-controlled.
	ChurnRemoveEdge
	// ChurnAddExtraEdge adds (U, V) to G' only (a new unreliable link).
	ChurnAddExtraEdge
	// ChurnRemoveExtraEdge removes (U, V) from G' — and, to preserve E ⊆ E',
	// from G as well. The link disappears entirely.
	ChurnRemoveExtraEdge
	// ChurnLeave takes node U offline: every edge incident to U is removed
	// from both G and G'. Leaving while already departed is a no-op.
	ChurnLeave
	// ChurnJoin brings node U back online: every edge of the *original base*
	// revision incident to U whose other endpoint is currently present is
	// restored to its base graph (G edges to G and G', extra edges to G').
	// Joining while present is a no-op.
	ChurnJoin
)

// String implements fmt.Stringer.
func (k ChurnKind) String() string {
	switch k {
	case ChurnAddEdge:
		return "add-edge"
	case ChurnRemoveEdge:
		return "remove-edge"
	case ChurnAddExtraEdge:
		return "add-extra"
	case ChurnRemoveExtraEdge:
		return "remove-extra"
	case ChurnLeave:
		return "leave"
	case ChurnJoin:
		return "join"
	default:
		return "unknown"
	}
}

// ChurnOp is one churn operation. Edge ops use U and V; node ops use U only.
type ChurnOp struct {
	Kind ChurnKind
	U, V NodeID
}

// Revision is one immutable topology in a churn sequence: the dual graph it
// denotes plus the bookkeeping (base adjacency, departed set) the next
// Apply needs. The vertex set never changes across revisions — a departed
// node keeps its id and simply has no edges — so per-node engine and
// algorithm state carries across epochs untouched.
type Revision struct {
	dual *Dual
	// base is the epoch-0 dual; ChurnJoin restores adjacency from it.
	base *Dual
	// departed[u] reports whether u is currently offline.
	departed []bool
}

// NewRevision wraps a base dual as revision zero of a churn sequence.
func NewRevision(base *Dual) *Revision {
	return &Revision{dual: base, base: base, departed: make([]bool, base.N())}
}

// Dual returns the revision's immutable dual graph.
func (rv *Revision) Dual() *Dual { return rv.dual }

// Departed reports whether node u is offline in this revision.
func (rv *Revision) Departed(u NodeID) bool { return rv.departed[u] }

// edgeSet is a mutable packed-key edge set used only while applying churn;
// Apply rebuilds immutable CSR graphs from it through the ordinary Builder.
type edgeSet map[uint64]struct{}

func edgeKey(u, v NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func setOf(g *Graph) edgeSet {
	s := make(edgeSet, g.NumEdges())
	g.ForEachEdge(func(u, v NodeID) { s[edgeKey(u, v)] = struct{}{} })
	return s
}

// Apply derives the next revision: ops execute in order against this
// revision's topology, then the result is finalized into fresh CSR duals.
// Out-of-range endpoints and self-loop edge ops are errors (a typo'd op
// would otherwise silently vanish from a deterministic schedule); edge ops
// naming a departed endpoint are ignored until the node rejoins, mirroring
// ChurnLeave's "offline" semantics. The receiver is unchanged.
func (rv *Revision) Apply(ops []ChurnOp) (*Revision, error) {
	n := rv.dual.N()
	next := &Revision{base: rv.base, departed: append([]bool(nil), rv.departed...)}
	gSet := setOf(rv.dual.G())
	gpSet := setOf(rv.dual.GPrime())

	present := func(u NodeID) bool { return !next.departed[u] }
	for i, op := range ops {
		switch op.Kind {
		case ChurnAddEdge, ChurnRemoveEdge, ChurnAddExtraEdge, ChurnRemoveExtraEdge:
			if op.U < 0 || op.V < 0 || op.U >= n || op.V >= n || op.U == op.V {
				return nil, fmt.Errorf("graph: churn op %d: %v (%d,%d) out of range for %d nodes", i, op.Kind, op.U, op.V, n)
			}
			if !present(op.U) || !present(op.V) {
				continue
			}
			key := edgeKey(op.U, op.V)
			switch op.Kind {
			case ChurnAddEdge:
				gSet[key] = struct{}{}
				gpSet[key] = struct{}{}
			case ChurnRemoveEdge:
				delete(gSet, key)
			case ChurnAddExtraEdge:
				gpSet[key] = struct{}{}
			case ChurnRemoveExtraEdge:
				delete(gSet, key)
				delete(gpSet, key)
			}
		case ChurnLeave:
			if op.U < 0 || op.U >= n {
				return nil, fmt.Errorf("graph: churn op %d: leave node %d out of range for %d nodes", i, op.U, n)
			}
			if next.departed[op.U] {
				continue
			}
			next.departed[op.U] = true
			// Drop every incident edge; iterating the current G' adjacency of
			// the *previous* revision is not enough (ops earlier in this list
			// may have added edges), so walk the sets.
			for key := range gpSet {
				if NodeID(key>>32) == op.U || NodeID(uint32(key)) == op.U {
					delete(gpSet, key)
					delete(gSet, key)
				}
			}
		case ChurnJoin:
			if op.U < 0 || op.U >= n {
				return nil, fmt.Errorf("graph: churn op %d: join node %d out of range for %d nodes", i, op.U, n)
			}
			if !next.departed[op.U] {
				continue
			}
			next.departed[op.U] = false
			for _, v := range rv.base.G().Neighbors(op.U) {
				if present(v) {
					gSet[edgeKey(op.U, v)] = struct{}{}
					gpSet[edgeKey(op.U, v)] = struct{}{}
				}
			}
			for _, v := range rv.base.ExtraNeighbors(op.U) {
				if present(v) {
					gpSet[edgeKey(op.U, v)] = struct{}{}
				}
			}
		default:
			return nil, fmt.Errorf("graph: churn op %d: unknown kind %d", i, op.Kind)
		}
	}

	gb, gpb := NewBuilder(n), NewBuilder(n)
	gb.Grow(len(gSet))
	gpb.Grow(len(gpSet))
	for key := range gSet {
		//dglint:allow detrand: Builder.Build sorts each row and drops its repeats, erasing insertion order
		gb.AddEdge(NodeID(key>>32), NodeID(uint32(key)))
	}
	for key := range gpSet {
		//dglint:allow detrand: Builder.Build sorts each row and drops its repeats, erasing insertion order
		gpb.AddEdge(NodeID(key>>32), NodeID(uint32(key)))
	}
	d, err := NewDual(gb.Build(), gpb.Build())
	if err != nil {
		// Unreachable by construction (every op preserves E ⊆ E'), but a
		// loud failure beats a silent bad topology if that invariant slips.
		return nil, fmt.Errorf("graph: churn produced invalid dual: %w", err)
	}
	if rv.base.Geographic() {
		d.SetEmbedding(rv.base.Pos(), rv.base.Radius())
	}
	next.dual = d
	return next, nil
}

// ApplyChurn is the one-shot form: base plus one op list, no chaining.
func ApplyChurn(base *Dual, ops []ChurnOp) (*Dual, error) {
	next, err := NewRevision(base).Apply(ops)
	if err != nil {
		return nil, err
	}
	return next.Dual(), nil
}
