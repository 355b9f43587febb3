// Package viewescape is the fixture for the viewescape analyzer: zero-copy
// graph views escaping into storage that can outlive an epoch swap.
package viewescape

import (
	"iter"

	"graph"
)

type holder struct {
	view  iter.Seq2[int, graph.NodeID]
	row   []int32
	offs  []int32
	adj   []int32
	idx   []int32
	words []uint64
}

var (
	pkgView iter.Seq2[int, graph.NodeID]
	pkgRow  []int32
)

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
	return holder{view: g.Neighbors(0)} // want `stored in a composite literal`
}

func rowStore(h *holder, g *graph.Graph) {
	h.row = g.Row(0) // want `zero-copy graph view stored in h\.row`
}

func extraRowStore(h *holder, d *graph.Dual) {
	h.row = d.ExtraRow(2) // want `stored in h\.row`
}

func rowPkgStore(d *graph.Dual) {
	pkgRow = d.ExtraRow(0) // want `package variable pkgRow outlives every epoch swap`
}

func rowTainted(h *holder, g *graph.Graph) {
	r := g.Row(1)
	h.row = r // want `stored in h\.row`
}

func rowComposite(d *graph.Dual) holder {
	return holder{row: d.ExtraRow(3)} // want `stored in a composite literal`
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
	return func() int {
		n := 0
		for range v { // want `view v captured by a closure`
			n++
		}
		return n
	}
}

func rowClosure(d *graph.Dual) func() int {
	r := d.ExtraRow(0)
	return func() int { return len(r) } // want `view r captured by a closure`
}

// okUses exercises the call-scoped idioms the contract blesses: locals that
// stay in the frame, ranging and copying contents, and returning a view to
// the caller.
func okUses(g *graph.Graph, d *graph.Dual) []int32 {
	var dst []graph.NodeID
	for _, v := range g.Neighbors(0) {
		dst = append(dst, v)
	}
	r := d.ExtraRow(0)
	for _, v := range r {
		dst = append(dst, graph.NodeID(v))
	}
	kept := append([]int32(nil), g.Row(2)...)
	for range d.ExtraNeighbors(0) {
		dst = append(dst, len(kept))
	}
	offs, adj := d.G().CSR()
	_ = offs
	_ = adj
	return g.Row(1)
}

func allowedStore(h *holder, g *graph.Graph) {
	//dglint:allow viewescape: fixture demonstrates the justified re-hoist
	h.row = g.Row(0)
}
