package radio

import (
	"cmp"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// DeliveryPlan selects the engine's delivery implementation. All paths
// compute the identical reception relation — a listener receives iff exactly
// one of its round-topology neighbors transmits, with collisions and silence
// indistinguishable — so the plan changes cost, never outcome (the
// differential equivalence tests enforce this bit for bit).
type DeliveryPlan int

const (
	// PlanAuto (the zero value) re-derives the plan at every epoch commit:
	// the bitmap path when the epoch's n, G' density, and estimated mask
	// footprint clear the gates below, and the CSR walk otherwise (always
	// with a recorder or clique cover attached). Within a bitmap epoch,
	// every round whose selector has rows runs the push kernel, whose cost
	// is the transmitters' row blocks, however few transmit, plus at most
	// as much again to serve the listeners heard once.
	PlanAuto DeliveryPlan = iota
	// PlanScalar forces the CSR walk.
	PlanScalar
	// PlanBitmap forces the word-parallel path at any n: the push kernel
	// over per-node nonzero mask blocks in node order (see
	// graph.SparseMasksOf). Rounds whose selector is all or none run it on
	// the rows of G' or G, and under a committed StaticSchedule with a
	// partial selector every round runs it on rows built for G plus the
	// selected edges. Only a partial selector that is adaptive or changes per
	// round has no rows, and its rounds take the CSR walk. With a Recorder
	// attached, every kernel round reports its deliveries in ascending
	// listener order; the set of deliveries is the CSR walk's.
	PlanBitmap
)

// String implements fmt.Stringer.
func (p DeliveryPlan) String() string {
	switch p {
	case PlanAuto:
		return "PlanAuto"
	case PlanScalar:
		return "PlanScalar"
	case PlanBitmap:
		return "PlanBitmap"
	}
	return "DeliveryPlan(" + strconv.Itoa(int(p)) + ")"
}

// Auto-plan thresholds. Below bitmapMinNodes the rounds are too cheap for
// the plan to matter. Above it the gate is density, at every n. Both paths
// cost the transmitters' side of a round: the walk one tally add per
// transmitter edge, the push kernel a push, a serve and a clear, each at
// most one pass over the transmitters' row blocks. The kernel wins where a
// block packs many neighbors, so the rows are taken only when the average
// G' degree clears n/64 (E(G') ≥ n²/128).
// Measured on a 2-vCPU x86-64 host (medians of 6–15 trials, three
// alternating pairs): on the dense 10⁴ circulant of degree 512, which clears
// the gate and packs ~57 neighbors a block, a decay trial takes 36–43 ms on
// the kernel against 168–176 ms on the walk, and 13–20 against 57–75 ms
// under SCALE-n's committed half-fringe selector. On SCALE-n's 10⁵
// ring+chords, whose blocks hold one or two neighbors, the two come out
// level: a decay trial takes 0.39–0.43 s on the kernel against 0.36–0.43 s
// on the walk, and a flood with half the nodes transmitting every round
// 127–134 against 128–155 ms at 10⁵ (a third walk run read 367 ms) and
// 0.79–0.92 against 0.75–0.88 s at 10⁶ (BenchmarkSparseDelivery). So
// sparse networks stay on the walk, which builds no masks.
const (
	bitmapMinNodes = 2048
	// sparseMaskMaxBytes caps the estimated block-sparse mask footprint
	// (graph.EstimateSparseMaskBytes) PlanAuto will commit to on a network
	// dense enough for the rows: 2 GiB covers hundreds of millions of edges
	// while keeping a runaway-dense G' from silently eating the machine.
	sparseMaskMaxBytes = int64(1) << 31
)

// setupPlan derives the delivery plan for the current epoch's topology:
// called once at engine construction and again at every epoch swap, so churn
// re-plans at O(revision) cost (masks memoize per graph; repeated trials
// and revisits share one build). On the bitmap plan it hoists the epoch's
// block-sparse rows of G, and of G' when a link process needs them; under a
// committed StaticSchedule whose selector is neither all nor none it builds
// the rows of G plus the selected E'\E edges instead, so every round of the
// epoch has rows.
func (e *engine) setupPlan() {
	e.plan = PlanScalar
	e.sparseG, e.sparseGP, e.sparseSel = nil, nil, nil
	switch e.cfg.Plan {
	case PlanScalar:
		return
	case PlanAuto:
		if e.cfg.UseCliqueCover || e.cfg.Recorder != nil || e.n < bitmapMinNodes {
			return
		}
		if n := int64(e.n); int64(e.net.GPrime().NumEdges()) < n*n/128 ||
			graph.EstimateSparseMaskBytes(e.net, e.cfg.Link != nil) > sparseMaskMaxBytes {
			return
		}
	}
	e.plan = PlanBitmap
	e.txWords, e.heardOnce, e.heardTwice = e.sc.planes(bitrand.WordsFor(e.n))
	e.sparseG = graph.SparseMasksOf(e.net.G())
	if e.cfg.Link == nil {
		return
	}
	if s, ok := e.committed.(StaticSchedule); ok && s.Selector != nil && !s.Selector.All() && !s.Selector.None() {
		e.sparseSel = e.sc.selectedRows(e.net, s.Selector)
		return
	}
	e.sparseGP = graph.SparseMasksOf(e.net.GPrime())
}

// roundMasks returns the mask rows matching this round's topology: the rows
// of G when the selector is none, of G' when it is all, and otherwise the
// committed static selector's rows, since that selector is the only partial
// one a round can carry while they are set. It returns nil for an adaptive
// or per-round partial selector, which keeps that round on the scalar walk.
func (e *engine) roundMasks(selector graph.EdgeSelector) *graph.SparseNeighborMasks {
	switch {
	case selector.None():
		return e.sparseG
	case selector.All():
		return e.sparseGP
	}
	return e.sparseSel
}

// deliverPush is the word-parallel delivery kernel. It pushes from the
// transmitters, in three passes:
//
//  1. each transmitter sets its bit in the transmitter bitmap and ORs its
//     row of m's blocks into two bit-planes, heardOnce (at least one
//     transmitter neighbors the listener) and heardTwice (at least two do);
//  2. every listener whose bit is in heardOnce and in neither heardTwice
//     nor the transmitter bitmap is served the message of its only
//     transmitting neighbor, from the cheaper side. When the first pass
//     pushed at most W blocks (W words a plane), each transmitter serves
//     the listeners its row holds. Otherwise one popcount a plane word
//     counts the heard-once listeners: with none the pass is skipped, and
//     when their rows, at m's average row length, cost less than the
//     pushed blocks, each is served from its own row, whose first block
//     that meets the transmitter bitmap holds its transmitter (m's rows are
//     symmetric: G's, G′'s, or G's plus a committed selection, and
//     EdgeSelector.Includes is symmetric); else the transmitters serve;
//  3. the words the first pass touched go back to 0: row by row, or with
//     one clear of each plane when the rows pushed more than W blocks,
//     which is cheaper and still no more than the push.
//
// A round over P pushed blocks therefore costs P, plus the smaller of P
// and its heard-once listeners' rows (as the average row length prices
// them), plus W when P > W: no term in n beyond the planes' width. The
// listener side is the pull half of direction-optimizing BFS (Beamer,
// Asanović, Patterson, SC'12) beside the kernel's push half, bounded by the
// listeners heard once instead of by n. Silence goes to awake nodes only,
// between the second and third passes, and to none when every process is a
// BulkStepper. The transmitter side serves in transmitter order, so with a
// recorder attached the round's deliveries are sorted into ascending
// listener order, the listener side's own order.
//
//dglint:noalloc gate=TestSparseDeliveryAllocs
func (e *engine) deliverPush(r int, res *Result, m *graph.SparseNeighborMasks) []Delivery {
	//dglint:allow viewescape: call-scoped row views of the epoch's masks
	offs, idx, words := m.Rows()
	txw := e.txWords
	// Equal lengths let the compiler drop the bounds checks it has proved
	// for one plane from the others.
	once, twice := e.heardOnce[:len(txw)], e.heardTwice[:len(txw)]
	pushed := 0
	for _, v := range e.tx {
		txw[v>>6] |= 1 << (uint(v) & 63)
		lo, hi := offs[v], offs[v+1]
		pushed += int(hi - lo)
		for k := lo; k < hi; k++ {
			b, w := idx[k], words[k]
			twice[b] |= once[b] & w
			once[b] |= w
		}
	}

	var recorded []Delivery
	record := e.cfg.Recorder != nil
	if record {
		recorded = e.recordBuf[:0]
	}
	// Pass 2. Past W pushed blocks the heard-once listeners are counted, and
	// served from their own rows when those cost less than the pushed
	// blocks, at m's average row length apiece.
	heard := -1 // not counted
	if pushed > len(txw) {
		heard = 0
		for b, w := range once {
			heard += bits.OnesCount64(w &^ (twice[b] | txw[b]))
		}
	}
	switch {
	case heard == 0:
		// Nobody is heard once.
	case heard > 0 && int64(heard)*int64(m.Entries()) < int64(pushed)*int64(e.n):
		for b, w := range once {
			for x := w &^ (twice[b] | txw[b]); x != 0; x &= x - 1 {
				// Rows are symmetric, so u's only transmitting neighbor is in
				// u's own row, in the first block that meets the transmitters.
				u := b<<6 | bits.TrailingZeros64(x)
				k := offs[u]
				for words[k]&txw[idx[k]] == 0 {
					k++
				}
				v := int(idx[k])<<6 | bits.TrailingZeros64(words[k]&txw[idx[k]])
				e.receive(r, u, e.msgOf[v], res)
				if record {
					recorded = append(recorded, Delivery{To: u, From: v})
				}
			}
		}
	default:
		for _, v := range e.tx {
			msg := e.msgOf[v]
			for k := offs[v]; k < offs[v+1]; k++ {
				b := idx[k]
				for x := words[k] & once[b] &^ (twice[b] | txw[b]); x != 0; x &= x - 1 {
					u := int(b)<<6 | bits.TrailingZeros64(x)
					e.receive(r, u, msg, res)
					if record {
						recorded = append(recorded, Delivery{To: u, From: v})
					}
				}
			}
		}
	}
	if !e.allBulk {
		e.silenceUnheard(r)
	}

	if pushed > len(txw) {
		clear(txw)
		clear(once)
		clear(twice)
	} else {
		for _, v := range e.tx {
			txw[v>>6] = 0
			for k := offs[v]; k < offs[v+1]; k++ {
				once[idx[k]], twice[idx[k]] = 0, 0
			}
		}
	}
	if record {
		slices.SortFunc(recorded, func(a, b Delivery) int { return cmp.Compare(a.To, b.To) })
		e.recordBuf = recorded[:0]
	}
	return recorded
}

// silenceUnheard hands nil to every awake node the push kernel served no
// message this round: transmitters, collided listeners and silent ones.
// Nodes the round woke were served, so they are skipped.
func (e *engine) silenceUnheard(r int) {
	txw, once, twice := e.txWords, e.heardOnce, e.heardTwice
	for lo, hi := e.awakeRun(0); lo < e.n; lo, hi = e.awakeRun(hi) {
		for u := lo; u < hi; u++ {
			b := u >> 6
			if (once[b]&^(twice[b]|txw[b]))>>(uint(u)&63)&1 == 0 {
				e.procs[u].Deliver(r, nil)
			}
		}
	}
}
