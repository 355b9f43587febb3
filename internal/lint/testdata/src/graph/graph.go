// Package graph is a miniature stand-in for repro/internal/graph, just
// enough surface for the viewescape fixtures: the view-returning accessors
// with the same names and result types on types with the same names.
package graph

import "iter"

// NodeID mirrors the real package's node identifier.
type NodeID = int

// Graph is a CSR graph whose accessors return zero-copy views.
type Graph struct {
	offs []int32
	adj  []int32
}

// Row returns a zero-copy view of a row.
func (g *Graph) Row(u NodeID) []int32 { return g.adj }

// Neighbors returns an iterator that closes over a row view.
func (g *Graph) Neighbors(u NodeID) iter.Seq2[int, NodeID] { return ids(g.adj) }

func ids(row []int32) iter.Seq2[int, NodeID] {
	return func(yield func(int, NodeID) bool) {
		for i, v := range row {
			if !yield(i, NodeID(v)) {
				return
			}
		}
	}
}

// CSR returns the backing arrays.
func (g *Graph) CSR() (offs, adj []int32) { return g.offs, g.adj }

// Dual mirrors the dual-graph wrapper.
type Dual struct {
	g Graph
}

// G returns the reliable graph.
func (d *Dual) G() *Graph { return &d.g }

// ExtraRow returns a zero-copy view of an unreliable-fringe row.
func (d *Dual) ExtraRow(u NodeID) []int32 { return d.g.adj }

// ExtraNeighbors returns an iterator over the unreliable fringe.
func (d *Dual) ExtraNeighbors(u NodeID) iter.Seq2[int, NodeID] { return ids(d.g.adj) }

// ExtraCSR returns the fringe backing arrays.
func (d *Dual) ExtraCSR() (offs, adj []int32) { return d.g.offs, d.g.adj }

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
