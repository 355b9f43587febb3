package graph

import (
	"sync"

	"repro/internal/bitrand"
)

// SparseNeighborMasks is the word-parallel adjacency representation of a
// graph: bit v of node u's bitmap row is set iff (u, v) is an edge. The
// engine's bitmap delivery path pushes from the transmitters: it ORs each
// transmitter's row into per-round bit-planes, 64 candidate listeners per
// word, so a round costs the transmitters' rows and no term in n. Each row
// stores only its nonzero 64-bit blocks — a block index array plus the
// packed block words, CSR-style over one flat backing pair — instead of the
// full ⌈n/64⌉ words. Storage is proportional to the edge count (at most one
// entry per directed edge, far fewer once neighbors share blocks), where
// full rows would be quadratic in n: ~125 GB at n = 10⁶, against tens of
// megabytes for the block rows of a ring-with-chords network.
//
// Rows are in node-id order: row u is node u, and bit v of a row is node v,
// so the engine hands row and bit indices to Deliver as they are.
type SparseNeighborMasks struct {
	w int

	// offs is the CSR row index: row u's entries are idx[offs[u]:offs[u+1]]
	// (block indices, ascending) and words[offs[u]:offs[u+1]] (block words).
	offs  []int32
	idx   []int32
	words []uint64
}

// BuildSparseNeighborMasks constructs the block-sparse bitmap adjacency of g.
// A CSR row is sorted, so its nonzero blocks are its runs of neighbors that
// share v>>6, in ascending block order.
func BuildSparseNeighborMasks(g *Graph) *SparseNeighborMasks {
	n := g.N()
	m := &SparseNeighborMasks{
		w:    bitrand.WordsFor(n),
		offs: make([]int32, n+1),
	}
	goffs, gadj := g.CSR()

	// Count pass: number of runs per row, so the flat entry arrays are
	// allocated exactly (the worst-case 2·E bound can be an order of
	// magnitude above the packed count).
	total := 0
	for u := 0; u < n; u++ {
		prev := -1
		for _, v := range gadj[goffs[u]:goffs[u+1]] {
			if v>>6 != prev {
				prev = v >> 6
				total++
			}
		}
		m.offs[u+1] = int32(total)
	}

	// Fill pass: one entry per run.
	m.idx = make([]int32, total)
	m.words = make([]uint64, total)
	for u := 0; u < n; u++ {
		k := int(m.offs[u]) - 1
		prev := -1
		for _, v := range gadj[goffs[u]:goffs[u+1]] {
			if wi := v >> 6; wi != prev {
				prev = wi
				k++
				m.idx[k] = int32(wi)
			}
			m.words[k] |= 1 << (uint(v) & 63)
		}
	}
	return m
}

// BuildSelected rebuilds m in place as the block-sparse rows of d's round
// topology under sel: G plus the E'\E edges sel includes. Each row is G's
// memoized row (SparseMasksOf) merged with the row's selected extra
// neighbors, which are ascending like the blocks and share no bit with
// them, since E'\E and E are disjoint. The rows reuse m's backing arrays,
// so an owner that rebuilds one value for every execution allocates only
// when a row set outgrows the last; the rows are read-only until the next
// rebuild. sel is asked about every directed E'\E pair once, and must be
// pure (see EdgeSelector).
func (m *SparseNeighborMasks) BuildSelected(d *Dual, sel EdgeSelector) {
	n := d.N()
	g := SparseMasksOf(d.G())
	exOffs, exAdj := d.ExtraCSR()
	m.w = g.w
	if cap(m.offs) < n+1 {
		m.offs = make([]int32, n+1)
	}
	m.offs = m.offs[:n+1]
	idx, words := m.idx[:0], m.words[:0]
	for u := 0; u < n; u++ {
		gi, ge := g.offs[u], g.offs[u+1]
		start := len(idx)
		for _, v := range exAdj[exOffs[u]:exOffs[u+1]] {
			if !sel.Includes(u, v) {
				continue
			}
			b, bit := int32(v>>6), uint64(1)<<(uint(v)&63)
			for ; gi < ge && g.idx[gi] < b; gi++ {
				idx, words = append(idx, g.idx[gi]), append(words, g.words[gi])
			}
			switch {
			case len(idx) > start && idx[len(idx)-1] == b:
				words[len(words)-1] |= bit
			case gi < ge && g.idx[gi] == b:
				idx, words = append(idx, b), append(words, g.words[gi]|bit)
				gi++
			default:
				idx, words = append(idx, b), append(words, bit)
			}
		}
		idx, words = append(idx, g.idx[gi:ge]...), append(words, g.words[gi:ge]...)
		m.offs[u+1] = int32(len(idx))
	}
	m.idx, m.words = idx, words
}

// W returns the width in words of the bit space the rows index into:
// WordsFor(n), the length of a transmitter bitmap.
func (m *SparseNeighborMasks) W() int { return m.w }

// Entries returns the total number of stored (block index, block word)
// pairs.
func (m *SparseNeighborMasks) Entries() int { return len(m.idx) }

// Bytes returns the memory footprint of the flat backing arrays.
func (m *SparseNeighborMasks) Bytes() int {
	return 4*len(m.offs) + 4*len(m.idx) + 8*len(m.words)
}

// BlockRow returns node u's nonzero blocks as zero-copy views:
// ascending block indices and the matching block words. Like
// Graph.Neighbors, the views are shared, read-only, and only as alive as the
// graph they came from.
func (m *SparseNeighborMasks) BlockRow(u NodeID) (idx []int32, words []uint64) {
	return m.idx[m.offs[u]:m.offs[u+1]], m.words[m.offs[u]:m.offs[u+1]]
}

// Rows exposes the flat CSR backing arrays for hot loops that slice rows
// themselves: row u is idx[offs[u]:offs[u+1]] / words[offs[u]:offs[u+1]].
// Read-only, same lifetime contract as BlockRow.
func (m *SparseNeighborMasks) Rows() (offs, idx []int32, words []uint64) {
	return m.offs, m.idx, m.words
}

// sparseMaskCache memoizes a graph's block-sparse rows (see SparseMasksOf).
type sparseMaskCache struct {
	once sync.Once
	m    *SparseNeighborMasks
}

// SparseMasksOf returns BuildSparseNeighborMasks(g), computed once per graph
// and shared afterwards — the same memoization contract as CliqueCoverOf and
// DecompositionOf: graphs are immutable, so every trial and every epoch
// revisit of the same revision shares one row set. A uniform dual's G' is
// its G, so its G' rows are its G rows.
func SparseMasksOf(g *Graph) *SparseNeighborMasks {
	g.masks.once.Do(func() { g.masks.m = BuildSparseNeighborMasks(g) })
	return g.masks.m
}

// EstimateSparseMaskBytes bounds the block-sparse mask footprint of d
// without building it: at most one (index, word) entry per directed edge
// plus the per-row offset array, doubled across G and G' when the execution
// needs unreliable rows. The engine's PlanAuto gate compares this bound
// against its memory budget — the estimate is an upper bound (neighbors
// sharing a block collapse into one entry), so a passing gate can only
// overstate the real cost.
func EstimateSparseMaskBytes(d *Dual, withGPrime bool) int64 {
	n := int64(d.N())
	entries := 2 * int64(d.g.NumEdges())
	sets := int64(1)
	if withGPrime && d.gp != d.g {
		entries += 2 * int64(d.gp.NumEdges())
		sets++
	}
	// 12 bytes per entry (int32 index + uint64 word) and n+1 int32 offsets
	// per row set.
	return 12*entries + sets*4*(n+1)
}
