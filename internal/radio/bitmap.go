package radio

import (
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
	// rounds with fewer transmitters than the bitmap width in words fall
	// back to the CSR walk per round — the scalar walk is O(Σ deg(tx)) and
	// beats the row scans on sparse rounds.
	PlanAuto DeliveryPlan = iota
	// PlanScalar forces the CSR walk.
	PlanScalar
	// PlanBitmap forces the word-parallel path for every round, at any n:
	// per-node nonzero mask blocks in node order (see graph.SparseMasksOf),
	// with per-row and per-round occupancy summaries pruning the kernel.
	// Rounds whose selector is neither all nor none have no precomputed rows
	// and fall back to the CSR walk. With a Recorder attached, every round
	// whose selector is all or none reports deliveries in ascending listener
	// order; the set of deliveries is the CSR walk's.
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
// the plan to matter. Above it the gate is density, at every n: a bitmap
// round visits every listener's row while the scalar walk costs Σ_x deg(x)
// adds over the transmitters, so the rows are taken only when the average
// G' degree clears n/64 (E(G') ≥ n²/128). Region summaries do not rescue
// sparse networks, measured on a 2-vCPU x86-64 host: a decay trial on
// SCALE-n's 10⁵ ring+chords takes 0.42–0.48 s on the walk, 0.58–0.70 s with
// the rows behind the per-round bitmapTxMin fallback and 0.95–1.02 s on the
// rows alone, because most decay rounds have few transmitters. Only a flood
// with half the nodes transmitting every round brings the rows level
// (BenchmarkSparseDelivery: within ~10% at 10⁵, ~10% ahead at 10⁶), and
// no experiment floods a sparse network that large. On the dense 10⁴
// circulant of degree 512, which clears the gate, the rows win 4–5× (45–52
// vs 225–233 ms a decay trial).
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
// block-sparse rows of G, and of G' when a link process needs them.
func (e *engine) setupPlan() {
	e.plan = PlanScalar
	e.bitmapTxMin = 0
	e.sparseG, e.sparseGP = nil, nil
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
		e.bitmapTxMin = bitrand.WordsFor(e.n)
	}
	e.plan = PlanBitmap
	e.txWords = e.sc.txBitmap(bitrand.WordsFor(e.n))
	e.sparseG = graph.SparseMasksOf(e.net.G())
	if e.cfg.Link != nil {
		e.sparseGP = graph.SparseMasksOf(e.net.GPrime())
	}
	e.sumShift = e.sparseG.RegionShift()
}

// roundMasks returns the mask rows matching this round's topology, or nil
// when the selector is neither all nor none (no rows are precomputed for a
// partial selector), which keeps that round on the scalar walk.
func (e *engine) roundMasks(selector graph.EdgeSelector) *graph.SparseNeighborMasks {
	switch {
	case selector.None():
		return e.sparseG
	case selector.All():
		return e.sparseGP
	}
	return nil
}

// fillTxSparse fills the transmitter bitmap from the round's transmitter
// list, maintaining the round's region-occupancy summary as bits are set.
//
//dglint:noalloc gate=TestBitmapDeliveryAllocs
func (e *engine) fillTxSparse() {
	txw := e.txWords
	clear(txw)
	var s uint64
	for _, v := range e.tx {
		txw[v>>6] |= 1 << (uint(v) & 63)
		s |= 1 << (uint(v>>6) >> e.sumShift)
	}
	e.txSumm = s
}

// deliverSparse is the word-parallel delivery kernel: every listener is
// classified by intersecting only its nonzero mask blocks with the
// transmitter bitmap (IntersectOneIndexed), after a one-word AND of the
// row's region summary against the round's transmitter summary rejects
// listeners whose neighborhood shares no region with any transmitter. Rows
// are walked in node order, so a recorder sees deliveries by ascending
// listener. Every row is classified, since a dormant node may receive;
// silence goes to awake nodes only, and to none when every process is a
// BulkStepper.
//
//dglint:noalloc gate=TestSparseDeliveryAllocs
func (e *engine) deliverSparse(r int, res *Result, m *graph.SparseNeighborMasks) []Delivery {
	//dglint:allow viewescape: call-scoped row views of the epoch's memoized masks
	offs, idx, words := m.Rows()
	//dglint:allow viewescape: call-scoped row views of the epoch's memoized masks
	summ := m.Summaries()
	txw := e.txWords
	txSumm := e.txSumm

	var recorded []Delivery
	record := e.cfg.Recorder != nil
	if record {
		recorded = e.recordBuf[:0]
	}
	for u := 0; u < e.n; u++ {
		if txw[u>>6]>>(uint(u)&63)&1 == 0 && summ[u]&txSumm != 0 {
			count, v := bitrand.IntersectOneIndexed(idx[offs[u]:offs[u+1]], words[offs[u]:offs[u+1]], txw)
			if count == 1 {
				e.receive(r, u, e.msgOf[v], res)
				if record {
					recorded = append(recorded, Delivery{To: u, From: v})
				}
				continue
			}
		}
		// Transmitting, no transmitter near the row's blocks, or a
		// collision: silence, which only an awake node that is not a
		// BulkStepper is handed.
		if !e.allBulk && e.isAwake(u) {
			e.procs[u].Deliver(r, nil)
		}
	}
	if record {
		e.recordBuf = recorded[:0]
	}
	return recorded
}
