package graph

import (
	"sort"
	"sync"
)

// EdgeSelector describes, for one round, which edges of E' \ E the link
// process includes in the communication topology. Selections are immutable
// once returned to the engine; adversaries return a fresh (or shared
// read-only) selector per round.
type EdgeSelector interface {
	// Includes reports whether the potential edge (u, v) ∈ E' \ E is present
	// this round. Implementations must be symmetric: Includes(u, v) =
	// Includes(v, u) — edges are undirected. Behavior on pairs outside
	// E' \ E is unspecified; the engine only queries potential edges.
	//
	// Includes must be pure: its answer depends only on (u, v) and the
	// selector, and asking has no effect. The engine relies on this to skip
	// queries whose answer cannot change the round's outcome, so a selector
	// sees only some of the round's potential edges, in no promised order.
	Includes(u, v NodeID) bool
	// All reports whether every edge of E' \ E is included; a fast-path hint.
	All() bool
	// None reports whether no edge of E' \ E is included; a fast-path hint.
	None() bool
}

// SelectAll includes every unreliable edge.
type SelectAll struct{}

// Includes implements EdgeSelector.
func (SelectAll) Includes(u, v NodeID) bool { return true }

// All implements EdgeSelector.
func (SelectAll) All() bool { return true }

// None implements EdgeSelector.
func (SelectAll) None() bool { return false }

// SelectNone includes no unreliable edge.
type SelectNone struct{}

// Includes implements EdgeSelector.
func (SelectNone) Includes(u, v NodeID) bool { return false }

// All implements EdgeSelector.
func (SelectNone) All() bool { return false }

// None implements EdgeSelector.
func (SelectNone) None() bool { return true }

// EdgeKey canonically orders an undirected edge.
type EdgeKey struct {
	U, V NodeID
}

// MakeEdgeKey returns the canonical key with U ≤ V.
func MakeEdgeKey(u, v NodeID) EdgeKey {
	if u > v {
		u, v = v, u
	}
	return EdgeKey{U: u, V: v}
}

// SelectSet includes exactly the listed edges.
type SelectSet struct {
	set map[EdgeKey]struct{}
}

// NewSelectSet builds a set selector over the given edges.
func NewSelectSet(edges []EdgeKey) *SelectSet {
	s := &SelectSet{set: make(map[EdgeKey]struct{}, len(edges))}
	for _, e := range edges {
		s.set[MakeEdgeKey(e.U, e.V)] = struct{}{}
	}
	return s
}

// Includes implements EdgeSelector.
func (s *SelectSet) Includes(u, v NodeID) bool {
	_, ok := s.set[MakeEdgeKey(u, v)]
	return ok
}

// All implements EdgeSelector.
func (s *SelectSet) All() bool { return false }

// None implements EdgeSelector.
func (s *SelectSet) None() bool { return len(s.set) == 0 }

// Len returns the number of selected edges.
func (s *SelectSet) Len() int { return len(s.set) }

// SelectFunc adapts a predicate to an EdgeSelector. Used by hash-based
// oblivious adversaries that decide each edge from (seed, round, u, v). F
// must be pure, as Includes must.
type SelectFunc struct {
	F func(u, v NodeID) bool
}

// Includes implements EdgeSelector.
func (s SelectFunc) Includes(u, v NodeID) bool { return s.F(u, v) }

// All implements EdgeSelector.
func (SelectFunc) All() bool { return false }

// None implements EdgeSelector.
func (SelectFunc) None() bool { return false }

// SelectCrossCut includes all unreliable edges except those crossing the
// given bipartition (InA true on one side). The Theorem 3.1 and 4.3
// adversaries use the complement forms: dense rounds include everything
// (SelectAll) and sparse rounds exclude exactly the A–B edges, which for the
// dual clique and bracelet is everything, making SelectNone equivalent; the
// cross-cut form covers dual graphs that also have unreliable edges inside
// the sides.
type SelectCrossCut struct {
	// InA reports side membership.
	InA func(NodeID) bool
}

// Includes implements EdgeSelector.
func (s SelectCrossCut) Includes(u, v NodeID) bool { return s.InA(u) == s.InA(v) }

// All implements EdgeSelector.
func (SelectCrossCut) All() bool { return false }

// None implements EdgeSelector.
func (SelectCrossCut) None() bool { return false }

// CliqueCover is a delivery accelerator: a partition of the nodes into
// G-cliques plus the residual G edges not inside a clique. For clique-heavy
// topologies (dual clique, bracelet tails) it reduces per-round delivery cost
// from Σ_x deg(x) to O(n + |X| + residual).
type CliqueCover struct {
	// Of maps each node to its clique index.
	Of []int
	// Count is the number of cliques.
	Count int
	// Residual lists G edges whose endpoints are in different cliques.
	Residual []EdgeKey
}

// coverCache memoizes a graph's greedy clique cover (see CliqueCoverOf).
type coverCache struct {
	once sync.Once
	c    *CliqueCover
}

// CliqueCoverOf returns BuildCliqueCover(g), computed once per graph and
// shared afterwards. Graphs are immutable and the cover construction is
// deterministic, so trials that run on the same network reuse one cover
// instead of rebuilding it per execution. The returned cover is read-only.
func CliqueCoverOf(g *Graph) *CliqueCover {
	g.cover.once.Do(func() { g.cover.c = BuildCliqueCover(g) })
	return g.cover.c
}

// BuildCliqueCover greedily covers G with cliques: repeatedly picks the
// unassigned node of highest degree and grows a clique among its unassigned
// neighbors. Always correct; effective when G really is clique-structured.
//
// Growth maintains the candidate set as a running sorted intersection of the
// members' CSR neighbor rows: accepting member v narrows the candidates to
// those also adjacent to v. This admits exactly the same nodes as checking
// each candidate against every member (the acceptance predicate — adjacent
// to all current members, scanned in ascending order — is identical) while
// costing one merge per member instead of a HasEdge probe per pair.
func BuildCliqueCover(g *Graph) *CliqueCover {
	n := g.N()
	cover := &CliqueCover{Of: make([]int, n)}
	for i := range cover.Of {
		cover.Of[i] = -1
	}
	order := make([]NodeID, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return g.Degree(order[i]) > g.Degree(order[j]) })
	var cand, next []int32 // reused scratch for the running intersection
	for _, seed := range order {
		if cover.Of[seed] != -1 {
			continue
		}
		id := cover.Count
		cover.Count++
		cover.Of[seed] = id
		cand = cand[:0]
		for _, v := range g.Row(seed) {
			if cover.Of[v] == -1 {
				cand = append(cand, v)
			}
		}
		for len(cand) > 0 {
			v := cand[0]
			cover.Of[v] = id
			// next = cand[1:] ∩ Row(v); both sorted ascending.
			next = next[:0]
			rest, nv := cand[1:], g.Row(int(v))
			i, j := 0, 0
			for i < len(rest) && j < len(nv) {
				switch {
				case rest[i] == nv[j]:
					next = append(next, rest[i])
					i++
					j++
				case rest[i] < nv[j]:
					i++
				default:
					j++
				}
			}
			cand, next = next, cand
		}
	}
	g.ForEachEdge(func(u, v NodeID) {
		if cover.Of[u] != cover.Of[v] {
			cover.Residual = append(cover.Residual, EdgeKey{U: u, V: v})
		}
	})
	return cover
}

// Validate checks that every clique in the cover is in fact a G-clique and
// that Residual is exactly the set of cross-clique G edges.
func (c *CliqueCover) Validate(g *Graph) bool {
	members := make([][]NodeID, c.Count)
	for u, id := range c.Of {
		if id < 0 || id >= c.Count {
			return false
		}
		members[id] = append(members[id], u)
	}
	for _, ms := range members {
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				if !g.HasEdge(ms[i], ms[j]) {
					return false
				}
			}
		}
	}
	want := 0
	g.ForEachEdge(func(u, v NodeID) {
		if c.Of[u] != c.Of[v] {
			want++
		}
	})
	return want == len(c.Residual)
}
