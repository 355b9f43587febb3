package graph

import (
	"slices"
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
// Rows are stored in the cluster-major id space of a ClusterOrder, so that
// the neighbors of nearby nodes pack into the same blocks and adjacent rows
// touch adjacent cache lines. Row u here means cluster-major node u; callers
// translate via the order's NewID/OldID arrays.
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

// BuildSparseNeighborMasks constructs the block-sparse bitmap adjacency of g
// with rows and bit positions in ord's cluster-major id space.
func BuildSparseNeighborMasks(g *Graph, ord *ClusterOrder) *SparseNeighborMasks {
	n := g.N()
	w := bitrand.WordsFor(n)
	m := &SparseNeighborMasks{
		w:           w,
		regionShift: regionShiftFor(w),
		offs:        make([]int32, n+1),
		summ:        make([]uint64, n),
	}
	goffs, gadj := g.CSR()
	rowBuf := make([]uint64, w)
	touched := make([]int32, 0, 64)

	// Count pass: number of distinct nonzero blocks per row, so the flat
	// entry arrays are allocated exactly (the worst-case 2·E bound can be an
	// order of magnitude above the packed count under a good order).
	total := 0
	for nu := 0; nu < n; nu++ {
		ou := ord.OldID[nu]
		for _, v := range gadj[goffs[ou]:goffs[ou+1]] {
			wi := ord.NewID[v] >> 6
			if rowBuf[wi] == 0 {
				rowBuf[wi] = 1
				touched = append(touched, int32(wi))
				total++
			}
		}
		for _, wi := range touched {
			rowBuf[wi] = 0
		}
		touched = touched[:0]
		m.offs[nu+1] = int32(total)
	}

	// Fill pass: pack each row's blocks in ascending block-index order and
	// derive its region summary.
	m.idx = make([]int32, 0, total)
	m.words = make([]uint64, 0, total)
	for nu := 0; nu < n; nu++ {
		ou := ord.OldID[nu]
		for _, v := range gadj[goffs[ou]:goffs[ou+1]] {
			nv := ord.NewID[v]
			wi := int32(nv >> 6)
			if rowBuf[wi] == 0 {
				touched = append(touched, wi)
			}
			rowBuf[wi] |= 1 << (uint(nv) & 63)
		}
		slices.Sort(touched)
		var s uint64
		for _, wi := range touched {
			m.idx = append(m.idx, wi)
			m.words = append(m.words, rowBuf[wi])
			rowBuf[wi] = 0
			s |= 1 << (uint(wi) >> m.regionShift)
		}
		m.summ[nu] = s
		touched = touched[:0]
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

// BlockRow returns cluster-major node u's nonzero blocks as zero-copy views:
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

// SparseMaskSet bundles a dual graph's block-sparse masks under one shared
// cluster-major order. The order is derived from the reliable graph G — the
// transmitter bitmap is shared between G and G' rounds, so both mask sets
// must agree on bit positions. G' masks are built lazily: executions without
// a link process never pay for them.
type SparseMaskSet struct {
	d *Dual
	// Order is the shared cluster-major relabeling (from G's decomposition).
	Order *ClusterOrder
	// G holds the reliable graph's block-sparse rows.
	G *SparseNeighborMasks

	gpOnce sync.Once
	gp     *SparseNeighborMasks
}

// GPrimeMasks returns the block-sparse rows of G' under the set's shared
// order, built on first use and shared afterwards. When G' is G (uniform
// duals) the G rows are returned directly.
func (s *SparseMaskSet) GPrimeMasks() *SparseNeighborMasks {
	s.gpOnce.Do(func() {
		if s.d.gp == s.d.g {
			s.gp = s.G
		} else {
			s.gp = BuildSparseNeighborMasks(s.d.gp, s.Order)
		}
	})
	return s.gp
}

// sparseMaskCache memoizes a dual's sparse mask set (see SparseMasksOf).
type sparseMaskCache struct {
	once sync.Once
	m    *SparseMaskSet
}

// SparseMasksOf returns the dual's block-sparse mask set, computed once per
// (immutable) network and shared by every trial and epoch revisit — the same
// memoization contract as CliqueCoverOf, keyed on the Dual because the
// cluster-major order must be shared between the G and G' rows.
func SparseMasksOf(d *Dual) *SparseMaskSet {
	d.sparse.once.Do(func() {
		ord := ClusterOrderOf(d.g)
		d.sparse.m = &SparseMaskSet{d: d, Order: ord, G: BuildSparseNeighborMasks(d.g, ord)}
	})
	return d.sparse.m
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
	rows := n
	if withGPrime && d.gp != d.g {
		entries += 2 * int64(d.gp.NumEdges())
		rows += n
	}
	// 12 bytes per entry (int32 index + uint64 word), 12 per row (offset +
	// summary), 16 per node for the order's two permutation arrays.
	return 12*entries + 12*rows + 16*n
}
