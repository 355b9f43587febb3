package graph

import (
	"sync"

	"repro/internal/bitrand"
)

// SparseNeighborMasks is the word-parallel adjacency representation of a
// graph: bit v of node u's bitmap row is set iff (u, v) is an edge, and the
// engine's bitmap delivery path intersects a row with the round's
// transmitter bitmap to classify reception 64 candidate senders per word.
// Each row stores only its nonzero 64-bit blocks — a block index array plus
// the packed block words, CSR-style over one flat backing pair — instead of
// the full ⌈n/64⌉ words. Storage is proportional to the edge count (at most
// one entry per directed edge, far fewer once neighbors share blocks), where
// full rows would be quadratic in n: ~125 GB at n = 10⁶, against tens of
// megabytes for the block rows of a ring-with-chords network.
//
// Rows are in node-id order: row u is node u, and bit v of a row is node v,
// so the engine hands row and bit indices to Deliver as they are.
//
// Each row also carries a one-word occupancy summary: bit j is set iff the
// row has a nonzero block whose index falls in region j, where a region is
// 1<<RegionShift consecutive blocks (regions sized so ≤ 64 cover the row).
// The engine keeps the matching transmitter-side summary incrementally per
// round, and one AND of the two words rejects most listeners of a sparse
// round before any block is read.
type SparseNeighborMasks struct {
	w           int
	regionShift uint

	// offs is the CSR row index: row u's entries are idx[offs[u]:offs[u+1]]
	// (block indices, ascending) and words[offs[u]:offs[u+1]] (block words).
	offs  []int32
	idx   []int32
	words []uint64
	// summ[u] is row u's region-occupancy summary.
	summ []uint64
}

// regionShiftFor returns the smallest shift such that at most 64 regions of
// 1<<shift blocks cover a row of w blocks.
func regionShiftFor(w int) uint {
	s := uint(0)
	for (w+(1<<s)-1)>>s > 64 {
		s++
	}
	return s
}

// BuildSparseNeighborMasks constructs the block-sparse bitmap adjacency of g.
// A CSR row is sorted, so its nonzero blocks are its runs of neighbors that
// share v>>6, in ascending block order.
func BuildSparseNeighborMasks(g *Graph) *SparseNeighborMasks {
	n := g.N()
	w := bitrand.WordsFor(n)
	m := &SparseNeighborMasks{
		w:           w,
		regionShift: regionShiftFor(w),
		offs:        make([]int32, n+1),
		summ:        make([]uint64, n),
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

	// Fill pass: one entry per run, and the row's region summary.
	m.idx = make([]int32, total)
	m.words = make([]uint64, total)
	for u := 0; u < n; u++ {
		k := int(m.offs[u]) - 1
		prev := -1
		var s uint64
		for _, v := range gadj[goffs[u]:goffs[u+1]] {
			if wi := v >> 6; wi != prev {
				prev = wi
				k++
				m.idx[k] = int32(wi)
				s |= 1 << (uint(wi) >> m.regionShift)
			}
			m.words[k] |= 1 << (uint(v) & 63)
		}
		m.summ[u] = s
	}
	return m
}

// W returns the width in words of the bit space the rows index into:
// WordsFor(n), the length of a transmitter bitmap.
func (m *SparseNeighborMasks) W() int { return m.w }

// RegionShift returns the summary granularity: region j covers block indices
// [j<<RegionShift, (j+1)<<RegionShift).
func (m *SparseNeighborMasks) RegionShift() uint { return m.regionShift }

// Entries returns the total number of stored (block index, block word)
// pairs.
func (m *SparseNeighborMasks) Entries() int { return len(m.idx) }

// Bytes returns the memory footprint of the flat backing arrays.
func (m *SparseNeighborMasks) Bytes() int {
	return 4*len(m.offs) + 4*len(m.idx) + 8*len(m.words) + 8*len(m.summ)
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

// Summary returns row u's region-occupancy summary word.
func (m *SparseNeighborMasks) Summary(u NodeID) uint64 { return m.summ[u] }

// Summaries exposes the flat per-row summary array. Read-only, same lifetime
// contract as BlockRow.
func (m *SparseNeighborMasks) Summaries() []uint64 { return m.summ }

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
// plus the per-row offset and summary arrays, doubled across G and G' when
// the execution needs unreliable rows. The engine's PlanAuto gate compares
// this bound against its memory budget — the estimate is an upper bound
// (neighbors sharing a block collapse into one entry), so a passing gate can
// only overstate the real cost.
func EstimateSparseMaskBytes(d *Dual, withGPrime bool) int64 {
	n := int64(d.N())
	entries := 2 * int64(d.g.NumEdges())
	sets := int64(1)
	if withGPrime && d.gp != d.g {
		entries += 2 * int64(d.gp.NumEdges())
		sets++
	}
	// 12 bytes per entry (int32 index + uint64 word); per row set, n+1
	// int32 offsets and n uint64 summaries.
	return 12*entries + sets*(4*(n+1)+8*n)
}
