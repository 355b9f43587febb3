// Package graph provides the network substrate for the dual graph radio
// model of Ghaffari, Lynch and Newport (PODC 2013).
//
// A dual graph is a pair (G, G') over a shared vertex set with E ⊆ E'. Edges
// of G are reliable; edges of E' \ E appear and disappear round by round
// under adversarial control. The package supplies plain graphs, dual graphs,
// the paper's lower-bound topologies (dual clique, bracelet), geographic
// graphs satisfying the unit-disk-style constraint of Section 2, the region
// decomposition used by the Section 4.3 algorithm, and graph metrics.
//
// Graphs are stored in CSR (compressed sparse row) form: one flat backing
// array of int32 neighbor ids plus per-node offsets. Row views return
// zero-copy slices of that array, so the simulation engine's inner loops
// walk contiguous memory with no per-node pointer chasing; Neighbors ranges
// over the same row as NodeIDs.
package graph

import (
	"errors"
	"fmt"
	"iter"
	"slices"
)

// NodeID identifies a node; nodes are always numbered 0..n-1. Signatures
// take and return NodeIDs, while the CSR rows and the decomposition store
// each id in an int32: NewBuilder bounds n below 2³¹, so every id fits.
type NodeID = int

// Graph is an immutable simple undirected graph in CSR form: adj holds every
// directed adjacency entry back to back, and offs[u]..offs[u+1] delimits u's
// sorted neighbor list. Build one with a Builder.
type Graph struct {
	n     int
	edges int
	offs  []int32 // len n+1; offs[u+1]-offs[u] = deg(u)
	adj   []int32

	// cover memoizes BuildCliqueCover(g) (see CliqueCoverOf); graphs are
	// immutable, so the cover is computed at most once per graph and shared
	// by every trial that runs on it.
	cover coverCache
	// decomp memoizes BuildDecomposition(g) (see DecompositionOf), again per
	// immutable graph.
	decomp decompCache
	// masks memoizes BuildSparseNeighborMasks(g) (see SparseMasksOf), again
	// per immutable graph.
	masks sparseMaskCache
}

// Builder accumulates edges for a Graph as a flat list of packed (u, v) keys;
// Build places them into CSR rows by counting and drops duplicates row by
// row, so adding duplicate edges is cheap and allocation only grows the one
// backing slice. Self-loops and out-of-range endpoints are ignored. The zero
// Builder is unusable; construct with NewBuilder.
type Builder struct {
	n     int
	edges []uint64 // packed u<<32|v with u < v; may contain duplicates
}

// maxBuilderNodes bounds n so edge keys pack into uint64 and every node id
// is an exact int32 CSR entry; maxBuilderEdges bounds the edges added to one
// builder, duplicates included, so the 2·edges directed CSR entries Build
// places (and every offset) fit in int32. Build enforces the edge bound
// explicitly — the node bound alone does not imply it. Both are far above
// any simulated network size.
const (
	maxBuilderNodes = 1 << 31
	maxBuilderEdges = (1 << 30) - 1
)

// slackShare bounds the unused tail a finished int32 array may keep: fit
// copies an array to its exact size only when its unused capacity exceeds
// 1/slackShare of the allocation, and reslices it otherwise.
const slackShare = 16

// fit returns xs[:w], the kept prefix of a finished array whose allocation
// is cap(xs) entries: the placed entries of a CSR array less the ones it
// dropped, or the clusters appended to a decomposition array. The prefix is
// copied to its exact size only when the unused cap(xs)-w entries exceed
// 1/slackShare of the allocation: a copy holds both arrays live at once,
// which at 10⁶ nodes costs tens of megabytes of peak to save a few bytes.
func fit(xs []int32, w int) []int32 {
	if cap(xs)-w > cap(xs)/slackShare {
		return append(make([]int32, 0, w), xs[:w]...)
	}
	return xs[:w]
}

// NewBuilder returns a builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 || n >= maxBuilderNodes {
		panic(fmt.Sprintf("graph: node count %d out of range [0,%d)", n, maxBuilderNodes))
	}
	return &Builder{n: n}
}

// Grow reserves capacity for at least extra additional edges, for
// constructions that know their edge count in advance.
func (b *Builder) Grow(extra int) {
	if extra > 0 {
		b.edges = slices.Grow(b.edges, extra)
	}
}

// AddEdge records the undirected edge (u, v). Out-of-range endpoints and
// self-loops are ignored so that randomized constructions can be written
// without bound bookkeeping; duplicates are dropped by Build.
func (b *Builder) AddEdge(u, v NodeID) {
	if u == v || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(v))
}

// HasEdge reports whether the edge has been added. It scans the accumulated
// edge list (the builder keeps no index), so it is intended for assertions
// and tests, not construction inner loops.
func (b *Builder) HasEdge(u, v NodeID) bool {
	if u > v {
		u, v = v, u
	}
	return slices.Contains(b.edges, uint64(u)<<32|uint64(v))
}

// Build finalizes the graph by counting: a degree pass over the added edges,
// a prefix sum into the row offsets, and a scatter of both directions of
// every edge into its rows, in the order the edges were added. A row the
// scatter left out of order is sorted (constructions that add edges in
// ascending order leave most rows sorted already), and each row drops its
// repeats; adj is copied to its exact size only when the repeats exceed
// 1/slackShare of the placed entries (see fit). It panics, before
// allocating anything, if more than maxBuilderEdges edges were added,
// duplicates included. The builder's edge list is not changed.
func (b *Builder) Build() *Graph {
	if len(b.edges) > maxBuilderEdges {
		panic(fmt.Sprintf("graph: %d edges added overflow the int32 CSR offsets (max %d)", len(b.edges), maxBuilderEdges))
	}
	n := b.n
	// offs[u] counts u's degree, then holds the start of u's row, then, as
	// the scatter's cursor, its end; shifting by one leaves each offs[u] at
	// the start of row u again.
	offs := make([]int32, n+1)
	for _, e := range b.edges {
		offs[e>>32]++
		offs[uint32(e)]++
	}
	var sum int32
	for u, d := range offs[:n] {
		offs[u] = sum
		sum += d
	}
	adj := make([]int32, sum)
	for _, e := range b.edges {
		u, v := e>>32, uint32(e)
		adj[offs[u]] = int32(v)
		offs[u]++
		adj[offs[v]] = int32(u)
		offs[v]++
	}
	copy(offs[1:], offs[:n])
	offs[0] = 0
	// Sort and deduplicate row by row, sliding each row left past the
	// repeats dropped before it: w is the write position, lo the row's
	// first entry as placed.
	var w, lo int32
	for u := 0; u < n; u++ {
		hi := offs[u+1]
		row := adj[lo:hi]
		if !slices.IsSorted(row) {
			slices.Sort(row)
		}
		row = slices.Compact(row)
		if w != lo {
			copy(adj[w:], row)
		}
		offs[u] = w
		w += int32(len(row))
		lo = hi
	}
	offs[n] = w
	return &Graph{n: n, edges: int(w) / 2, offs: offs, adj: fit(adj, int(w))}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns the degree of u.
func (g *Graph) Degree(u NodeID) int { return int(g.offs[u+1] - g.offs[u]) }

// MaxDegree returns the maximum degree Δ, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// Row returns u's sorted neighbor list as a zero-copy view into the graph's
// int32 CSR backing array. The view stays valid for the lifetime of the
// (immutable) graph and is shared by every caller; it must not be modified.
// Loops that run per round or per edge read rows; Neighbors ranges over the
// same row as NodeIDs.
func (g *Graph) Row(u NodeID) []int32 { return g.adj[g.offs[u]:g.offs[u+1]] }

// Neighbors ranges over u's sorted neighbors as (index, NodeID) pairs: the
// entries of Row(u), widened. Ranging allocates nothing and stops at break;
// the iterator reads the row view, so it has the view's lifetime.
func (g *Graph) Neighbors(u NodeID) iter.Seq2[int, NodeID] { return ids(g.Row(u)) }

// ids ranges over a CSR row view as (index, NodeID) pairs.
func ids(row []int32) iter.Seq2[int, NodeID] {
	return func(yield func(int, NodeID) bool) {
		for i, v := range row {
			if !yield(i, NodeID(v)) {
				return
			}
		}
	}
}

// CSR exposes the flat adjacency arrays: offs has length N()+1 and
// adj[offs[u]:offs[u+1]] is Row(u). Hot loops (the engine's delivery pass)
// iterate these directly instead of slicing a row per node. Both slices are
// the graph's own storage and must be treated as read-only.
func (g *Graph) CSR() (offs, adj []int32) { return g.offs, g.adj }

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	_, ok := slices.BinarySearch(g.Row(u), int32(v))
	return ok
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v NodeID)) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.Row(u) {
			if u < int(v) {
				fn(u, int(v))
			}
		}
	}
}

// Point is a position in the Euclidean plane for geographic graphs.
type Point struct {
	X, Y float64
}

// Dual is a dual graph network (G, G') with E ⊆ E'. Extra adjacency (the
// adversary-controlled edges E' \ E) is precomputed in its own CSR arrays.
// If the network carries a geographic embedding, Pos is non-nil and Radius
// holds the constant r ≥ 1 of the Section 2 constraint.
type Dual struct {
	g  *Graph
	gp *Graph

	// CSR adjacency restricted to E' \ E, sorted per node.
	extraOffs []int32
	extraAdj  []int32

	unionComplete bool

	// Geographic embedding, nil/0 when absent.
	pos    []Point
	radius float64
}

// ErrNotSubset is returned when the reliable graph is not a subgraph of G'.
var ErrNotSubset = errors.New("graph: E(G) is not a subset of E(G')")

// NewDual validates E ⊆ E' and builds the dual graph. Both the subset check
// and the E' \ E adjacency fall out of one sorted-list difference walk per
// node over the two CSR rows.
func NewDual(g, gp *Graph) (*Dual, error) {
	if g.N() != gp.N() {
		return nil, fmt.Errorf("graph: vertex count mismatch: G has %d, G' has %d", g.N(), gp.N())
	}
	n := g.N()
	d := &Dual{g: g, gp: gp}
	d.extraOffs = make([]int32, n+1)
	d.extraAdj = make([]int32, 0, max(0, 2*(gp.NumEdges()-g.NumEdges())))
	for u := 0; u < n; u++ {
		ga, gpa := g.Row(u), gp.Row(u)
		i := 0
		for _, v := range gpa {
			if i < len(ga) {
				if ga[i] < v {
					// g neighbor absent from the (sorted) gp row.
					return nil, fmt.Errorf("%w: edge (%d,%d)", ErrNotSubset, u, ga[i])
				}
				if ga[i] == v {
					i++
					continue
				}
			}
			d.extraAdj = append(d.extraAdj, v)
		}
		if i < len(ga) {
			return nil, fmt.Errorf("%w: edge (%d,%d)", ErrNotSubset, u, ga[i])
		}
		d.extraOffs[u+1] = int32(len(d.extraAdj))
	}
	d.unionComplete = gp.NumEdges() == n*(n-1)/2
	return d, nil
}

// unionDual builds the dual (g, g ∪ x) from g and a graph x of sampled
// pairs: x's rows, less the pairs g already holds, become the dual's E' \ E
// rows, and each G' row is the merge of the G row and the E' \ E row.
// Sampled fringes are sparse beside G, so the merge copies the G row in runs
// between the sampled entries rather than comparing entry by entry; a
// sampled entry that equals the G entry at its cut is dropped, and x's rows
// and offsets are compacted in place past it. A G pair is dropped from both
// of its rows, so x keeps whole undirected edges.
func unionDual(g, x *Graph) *Dual {
	n := g.N()
	if g.edges+x.edges > maxBuilderEdges {
		panic(fmt.Sprintf("graph: %d edges overflow the int32 CSR offsets (max %d)", g.edges+x.edges, maxBuilderEdges))
	}
	gp := &Graph{n: n, offs: make([]int32, n+1)}
	adj := make([]int32, len(g.adj)+len(x.adj))
	w, xw := 0, int32(0)
	for u := 0; u < n; u++ {
		// Copy the G row in runs, cut where each sampled entry falls.
		row := g.Row(u)
		xlo, xhi := x.offs[u], x.offs[u+1]
		x.offs[u] = xw
		for _, v := range x.adj[xlo:xhi] {
			k, found := slices.BinarySearch(row, v)
			w += copy(adj[w:], row[:k])
			row = row[k:]
			if found {
				continue
			}
			adj[w] = v
			w++
			x.adj[xw] = v
			xw++
		}
		w += copy(adj[w:], row)
		gp.offs[u+1] = int32(w)
	}
	x.offs[n] = xw
	gp.adj = fit(adj, w)
	gp.edges = w / 2
	return &Dual{
		g: g, gp: gp,
		extraOffs:     x.offs,
		extraAdj:      fit(x.adj, int(xw)),
		unionComplete: gp.edges == n*(n-1)/2,
	}
}

// MustDual is NewDual that panics on error, for use with constructions that
// are correct by design.
func MustDual(g, gp *Graph) *Dual {
	d, err := NewDual(g, gp)
	if err != nil {
		panic(err)
	}
	return d
}

// UniformDual wraps a single graph as the dual graph (G, G), which is exactly
// the static protocol model.
func UniformDual(g *Graph) *Dual {
	return &Dual{
		g: g, gp: g,
		extraOffs:     make([]int32, g.N()+1),
		unionComplete: g.NumEdges() == g.N()*(g.N()-1)/2,
	}
}

// N returns the number of nodes.
func (d *Dual) N() int { return d.g.N() }

// G returns the reliable graph.
func (d *Dual) G() *Graph { return d.g }

// GPrime returns the unreliable superset graph G'.
func (d *Dual) GPrime() *Graph { return d.gp }

// ExtraRow returns u's sorted neighbors across E' \ E as a zero-copy view
// into the dual's int32 CSR backing array. Like Graph.Row, the view is valid
// for the network's lifetime and must not be modified.
func (d *Dual) ExtraRow(u NodeID) []int32 {
	return d.extraAdj[d.extraOffs[u]:d.extraOffs[u+1]]
}

// ExtraNeighbors ranges over u's sorted neighbors across E' \ E as (index,
// NodeID) pairs: the entries of ExtraRow(u), widened, with
// Graph.Neighbors' contract.
func (d *Dual) ExtraNeighbors(u NodeID) iter.Seq2[int, NodeID] { return ids(d.ExtraRow(u)) }

// ExtraCSR exposes the flat E' \ E adjacency arrays, in the same layout as
// Graph.CSR. Read-only.
func (d *Dual) ExtraCSR() (offs, adj []int32) { return d.extraOffs, d.extraAdj }

// NumExtraEdges returns |E' \ E|.
func (d *Dual) NumExtraEdges() int { return d.gp.NumEdges() - d.g.NumEdges() }

// UnionComplete reports whether G' is the complete graph, enabling the
// engine's dense-round fast path.
func (d *Dual) UnionComplete() bool { return d.unionComplete }

// MaxDegree returns Δ, the maximum degree in G' (the paper's Δ).
func (d *Dual) MaxDegree() int { return d.gp.MaxDegree() }

// Pos returns the geographic embedding or nil.
func (d *Dual) Pos() []Point { return d.pos }

// Radius returns the geographic constant r, or 0 when not geographic.
func (d *Dual) Radius() float64 { return d.radius }

// Geographic reports whether the network carries an embedding.
func (d *Dual) Geographic() bool { return d.pos != nil }

// SetEmbedding attaches a geographic embedding. It does not re-validate the
// unit-disk constraint; constructions in this package produce consistent
// embeddings, and ValidateGeographic checks arbitrary ones.
func (d *Dual) SetEmbedding(pos []Point, radius float64) {
	d.pos = pos
	d.radius = radius
}

// ValidateGeographic checks the Section 2 constraint against the embedding:
// d(u,v) ≤ 1 implies (u,v) ∈ G, and d(u,v) > r implies (u,v) ∉ G'.
func (d *Dual) ValidateGeographic() error {
	if d.pos == nil {
		return errors.New("graph: no embedding")
	}
	if d.radius < 1 {
		return fmt.Errorf("graph: geographic radius %v < 1", d.radius)
	}
	n := d.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dd := dist2(d.pos[u], d.pos[v])
			if dd <= 1 && !d.g.HasEdge(u, v) {
				return fmt.Errorf("graph: nodes %d,%d at distance ≤ 1 not connected in G", u, v)
			}
			if dd > d.radius*d.radius && d.gp.HasEdge(u, v) {
				return fmt.Errorf("graph: nodes %d,%d at distance > r connected in G'", u, v)
			}
		}
	}
	return nil
}

func dist2(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}
