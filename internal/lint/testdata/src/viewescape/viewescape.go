// Package viewescape is the fixture for the viewescape analyzer: zero-copy
// graph views escaping into storage that can outlive an epoch swap.
package viewescape

import "graph"

type holder struct {
	view  []graph.NodeID
	offs  []int32
	adj   []graph.NodeID
	idx   []int32
	words []uint64
}

var pkgView []graph.NodeID

func fieldStore(h *holder, g *graph.Graph) {
	h.view = g.Neighbors(0) // want `zero-copy graph view stored in h\.view`
}

func tupleStore(h *holder, g *graph.Graph) {
	h.offs, h.adj = g.CSR() // want `stored in h\.offs` `stored in h\.adj`
}

func extraStore(h *holder, d *graph.Dual) {
	h.view = d.ExtraNeighbors(2) // want `stored in h\.view`
}

func pkgStore(g *graph.Graph) {
	pkgView = g.Neighbors(0) // want `package variable pkgView outlives every epoch swap`
}

func taintedLocal(h *holder, d *graph.Dual) {
	v := d.ExtraNeighbors(1)
	h.view = v // want `stored in h\.view`
}

func composite(g *graph.Graph) holder {
	return holder{adj: g.Neighbors(0)} // want `stored in a composite literal`
}

func sparseBlockStore(h *holder, m *graph.SparseNeighborMasks) {
	h.idx, h.words = m.BlockRow(3) // want `stored in h\.idx` `stored in h\.words`
}

func sparseRowsStore(h *holder, m *graph.SparseNeighborMasks) {
	h.offs, h.idx, h.words = m.Rows() // want `stored in h\.offs` `stored in h\.idx` `stored in h\.words`
}

func sparseTainted(h *holder, m *graph.SparseNeighborMasks) {
	_, words := m.BlockRow(2)
	h.words = words // want `stored in h\.words`
}

func sparseOK(m *graph.SparseNeighborMasks) int {
	idx, words := m.BlockRow(0)
	total := len(idx)
	for _, w := range words {
		total += int(w & 1)
	}
	offs, _, _ := m.Rows()
	return total + len(offs)
}

func closure(g *graph.Graph) func() int {
	v := g.Neighbors(0)
	return func() int { return len(v) } // want `view v captured by a closure`
}

// okUses exercises the call-scoped idioms the contract blesses: locals that
// stay in the frame, copying contents, and returning a view to the caller.
func okUses(g *graph.Graph, d *graph.Dual) []graph.NodeID {
	v := g.Neighbors(0)
	dst := append([]graph.NodeID(nil), v...)
	for range d.ExtraNeighbors(0) {
		dst = append(dst, 0)
	}
	offs, adj := d.G().CSR()
	_ = offs
	_ = adj
	return g.Neighbors(1)
}

func allowedStore(h *holder, g *graph.Graph) {
	//dglint:allow viewescape: fixture demonstrates the justified re-hoist
	h.adj = g.Neighbors(0)
}
