// Package graph is a miniature stand-in for repro/internal/graph, just
// enough surface for the viewescape fixtures: the view-returning accessors
// with the same names on types with the same names.
package graph

// NodeID mirrors the real package's node identifier.
type NodeID = int

// Graph is a CSR graph whose accessors return zero-copy views.
type Graph struct {
	offs []int32
	adj  []NodeID
}

// Neighbors returns a zero-copy view.
func (g *Graph) Neighbors(u NodeID) []NodeID { return g.adj }

// CSR returns the backing arrays.
func (g *Graph) CSR() (offs []int32, adj []NodeID) { return g.offs, g.adj }

// Dual mirrors the dual-graph wrapper.
type Dual struct {
	g Graph
}

// G returns the reliable graph.
func (d *Dual) G() *Graph { return &d.g }

// ExtraNeighbors returns a zero-copy view of the unreliable fringe.
func (d *Dual) ExtraNeighbors(u NodeID) []NodeID { return d.g.adj }

// ExtraCSR returns the fringe backing arrays.
func (d *Dual) ExtraCSR() (offs []int32, adj []NodeID) { return d.g.offs, d.g.adj }

// SparseNeighborMasks mirrors the block-sparse mask rows, whose accessors
// return zero-copy views with the same lifetime contract.
type SparseNeighborMasks struct {
	offs  []int32
	idx   []int32
	words []uint64
}

// BlockRow returns a row's block views.
func (m *SparseNeighborMasks) BlockRow(u NodeID) (idx []int32, words []uint64) {
	return m.idx, m.words
}

// Rows returns the flat backing arrays.
func (m *SparseNeighborMasks) Rows() (offs, idx []int32, words []uint64) {
	return m.offs, m.idx, m.words
}
