package graph

import "sync"

// ClusterOrder is a bijective cluster-major relabeling of a graph's nodes,
// derived from the deterministic network decomposition (DecompositionOf):
// clusters are laid out consecutively in cluster-index order, members within
// a cluster in BFS-visit order. Nodes that are close in G therefore land on
// nearby new ids, so their bits share mask words and their block-sparse rows
// share cache lines — the decomposition doubling as a locality partitioner
// (ROADMAP "Decomposition as sparsifier").
//
// The order is a pure relabeling, never a semantic change: the engine applies
// it when building block-sparse mask rows and inverts it at every
// Deliver/record boundary, so all observable output (transmitters,
// deliveries, monitors, energy) is in original node ids and identical to the
// unrenumbered paths.
type ClusterOrder struct {
	// NewID[old] is the cluster-major id of original node old.
	NewID []NodeID
	// OldID[new] is the original id of cluster-major node new; the two
	// arrays are inverse permutations of each other.
	OldID []NodeID
}

// BuildClusterOrder derives the cluster-major order of g from its memoized
// decomposition.
func BuildClusterOrder(g *Graph) *ClusterOrder {
	dec := DecompositionOf(g)
	n := g.N()
	o := &ClusterOrder{NewID: make([]NodeID, n), OldID: make([]NodeID, n)}
	next := 0
	for k := 0; k < dec.Count; k++ {
		for _, u := range dec.Members(k) {
			o.NewID[u] = next
			o.OldID[next] = u
			next++
		}
	}
	return o
}

// orderCache memoizes a graph's cluster-major order (see ClusterOrderOf).
type orderCache struct {
	once sync.Once
	o    *ClusterOrder
}

// ClusterOrderOf returns BuildClusterOrder(g), computed once per graph and
// shared afterwards — the same memoization contract as CliqueCoverOf:
// graphs are immutable, so every trial (and every epoch revisit) of the same
// revision shares one order. The returned arrays are read-only and live as
// long as the graph.
func ClusterOrderOf(g *Graph) *ClusterOrder {
	g.order.once.Do(func() { g.order.o = BuildClusterOrder(g) })
	return g.order.o
}
