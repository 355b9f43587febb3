package radio

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// scratch holds every reusable per-execution buffer of the engine. The
// experiment harness runs tens of thousands of short trials; allocating
// these Θ(n) buffers (and one rng Source per node) for each trial dominated
// the allocation profile, so completed executions return their scratch to a
// pool and the next trial reuses it. grow re-clears everything an execution
// reads before writing, so pooling never leaks state between trials.
//
//dglint:pooled reset=grow,clique,rumor,arenaStore,arenaDrop,planes,selectedRows
type scratch struct {
	// class is the pool bucket this scratch belongs to (see getScratch), or
	// -1 for an oversized scratch that is never pooled.
	class int //dglint:allow scratchreset: getScratch stamps it on every checkout

	// tally is the CSR walk's per-node word (see deliver); the walk leaves
	// every entry at 0, and grow clears it for a reused scratch.
	tally    []int32
	touched  []graph.NodeID
	tx       []graph.NodeID
	msgOf    []*Message
	probs    []float64
	lastTx   []graph.NodeID
	txByNode []int64
	// noise[u] is the messageless transmission delivered when a process
	// transmits with a nil Msg. Its content is a pure function of the index
	// (Origin: u), so reusing the entries across trials is observationally
	// identical to allocating fresh ones.
	noise []Message

	// clique-cover accelerator buffers, sized by the cover count on demand.
	cliqueTx []int32
	cliqueS  []graph.NodeID

	// the push kernel's per-round bit-planes (W words each: the
	// transmitters, the listeners heard once and those heard twice), sized
	// and cleared on demand when an execution picks the bitmap plan. The
	// kernel zeroes every word it set before the round ends.
	txWords    []uint64
	heardOnce  []uint64
	heardTwice []uint64
	// selRows holds the block-sparse rows of G plus a committed static
	// selector's E'\E edges, built in place by selectedRows; selNet and
	// selSet name the network and the *SelectSet they were last built for
	// (selSet nil for any other selector).
	selRows graph.SparseNeighborMasks
	selNet  *graph.Dual
	selSet  *graph.SelectSet

	// monitor backing stores: the round-stamp slice shared by the global and
	// local monitors (and repurposed as the gossip monitor's source index),
	// the global monitor's informed bitmap (WordsFor(n) words), the local
	// monitor's two membership sets, and the gossip monitor's per-rumor
	// round-stamp matrix — rows over one flat n·k backing array, resized in
	// place by rumor().
	monInts  []int
	monBits  []uint64
	monB     []bool
	monR     []bool
	monRumor []int
	monRows  [][]int
	// pooled monitor structs.
	globalMon globalMonitor //dglint:allow scratchreset: newGlobalMonitor overwrites the whole struct each execution
	localMon  localMonitor  //dglint:allow scratchreset: newLocalMonitor overwrites the whole struct each execution
	gossipMon gossipMonitor //dglint:allow scratchreset: newGossipMonitor overwrites the whole struct each execution

	// per-node rng storage: rngBlock[u] is node u's stream, reseeded when u
	// joins the execution's awake set (a dormant node's stream is never
	// read). algRng is the algorithm-construction stream, reseeded at every
	// execution's set-up. probers and bulkSteps cache the per-node TransmitProber and
	// BulkStepper views; awake is the engine's awake-node bitmap
	// (WordsFor(n) words) and awakeWords its second level, one bit per
	// nonzero awake word, both cleared by grow and filled by wake.
	// cohortFrom[u] is the first round an awake cohort member takes part in
	// (see CohortMember), written by wake and read only for awake nodes.
	rngBlock   []bitrand.Source
	algRng     bitrand.Source //dglint:allow scratchreset: engine.init reseeds it before any draw, every execution
	probers    []TransmitProber
	bulkSteps  []BulkStepper
	awake      []uint64
	awakeWords []uint64
	cohortFrom []int

	// Process arena: the slab of the last execution that used this scratch,
	// plus the identity it was built for. When the next execution matches
	// (same factory name, same network pointer, element-wise-equal spec), the
	// engine hands the slab to ProcessFactory.ResetProcesses instead of
	// allocating a fresh one. The stored spec slices are scratch-owned
	// copies, so later in-place mutation of a caller's spec cannot fake a
	// match. grow deliberately leaves the arena alone: its key is the
	// configuration, not n.
	arenaProcs []Process
	arenaAlg   string
	arenaNet   *graph.Dual
	arenaProb  Problem
	arenaSrc   graph.NodeID
	arenaB     []graph.NodeID
	arenaS     []graph.NodeID
	arenaInj   []Injection

	// recorder delivery buffer, reused each round; handed to Recorder.Record
	// and valid only during the call.
	recordBuf []Delivery //dglint:allow scratchreset: the engine reslices it to [:0] before first use each execution
}

// The scratch pool is bucketed by power-of-two node-count classes so the
// slabs a trial warms are sized for the trials that reuse them: before the
// bucketing, one large-n trial would permanently pin worst-case Θ(n) slabs
// that every later small-n trial dragged around. Classes above
// scratchMaxClass are not pooled at all — a huge trial allocates fresh and
// hands its slabs straight back to the GC.
const (
	// scratchMinClass is the smallest bucket; every n up to 1<<scratchMinClass
	// shares it.
	scratchMinClass = 6
	// scratchMaxClass is the largest pooled bucket (n ≤ 2²⁰, covering the
	// SCALE-n family's million-node trials); larger scratches are dropped on
	// release instead of pooled. The huge classes cost tens of MB of linear
	// slabs each while pooled, but a million-node experiment runs many
	// trials back to back and re-allocating ~50 MB per trial churned the GC
	// far harder than pinning one slab set per class — and sync.Pool
	// releases them under memory pressure anyway.
	scratchMaxClass = 20
)

var scratchPools [scratchMaxClass - scratchMinClass + 1]sync.Pool

func init() {
	for i := range scratchPools {
		scratchPools[i].New = func() any { return new(scratch) }
	}
}

// scratchClass returns the power-of-two size class of n: the smallest c with
// n ≤ 1<<c, clamped below to scratchMinClass. Values above scratchMaxClass
// mark the scratch as unpooled.
func scratchClass(n int) int {
	c := bits.Len(uint(n - 1))
	if c < scratchMinClass {
		c = scratchMinClass
	}
	return c
}

// getScratch takes a scratch from the pool sized and cleared for n nodes.
func getScratch(n int) *scratch {
	c := scratchClass(n)
	if c > scratchMaxClass {
		s := new(scratch)
		s.class = -1
		s.grow(n)
		return s
	}
	s := scratchPools[c-scratchMinClass].Get().(*scratch)
	s.class = c
	s.grow(n)
	return s
}

// putScratch returns a scratch to its class pool; oversized scratches are
// dropped to the GC.
func putScratch(s *scratch) {
	if s.class < 0 {
		return
	}
	scratchPools[s.class-scratchMinClass].Put(s)
}

// grow sizes every buffer for n nodes and clears the state an execution
// relies on: delivery tally at zero, transmission counts at zero, no
// retained message pointers, and membership sets empty.
func (s *scratch) grow(n int) {
	if cap(s.tally) < n {
		s.tally = make([]int32, n)
		s.touched = make([]graph.NodeID, 0, n)
		s.tx = make([]graph.NodeID, 0, n)
		s.msgOf = make([]*Message, n)
		s.probs = make([]float64, n)
		s.lastTx = make([]graph.NodeID, 0, n)
		s.txByNode = make([]int64, n)
		s.noise = make([]Message, n)
		s.monInts = make([]int, n)
		s.monBits = make([]uint64, bitrand.WordsFor(n))
		s.monB = make([]bool, n)
		s.monR = make([]bool, n)
		s.rngBlock = make([]bitrand.Source, n)
		s.probers = make([]TransmitProber, n)
		s.bulkSteps = make([]BulkStepper, n)
		s.cohortFrom = make([]int, n)
		s.awake = make([]uint64, bitrand.WordsFor(n))
		s.awakeWords = make([]uint64, bitrand.WordsFor(bitrand.WordsFor(n)))
		for u := range s.noise {
			s.noise[u] = Message{Origin: u}
		}
		return
	}
	s.tally = s.tally[:n]
	clear(s.tally)
	s.touched = s.touched[:0]
	s.tx = s.tx[:0]
	// Clear message pointers over the full capacity, not just [:n]: a
	// scratch last used for a larger network must not pin that trial's
	// messages (and payloads) while it cycles through the pool.
	clear(s.msgOf[:cap(s.msgOf)])
	s.msgOf = s.msgOf[:n]
	s.probs = s.probs[:n]
	s.lastTx = s.lastTx[:0]
	s.txByNode = s.txByNode[:n]
	clear(s.txByNode)
	s.noise = s.noise[:n]
	s.monInts = s.monInts[:n]
	s.monBits = s.monBits[:bitrand.WordsFor(n)]
	clear(s.monBits)
	s.monB = s.monB[:n]
	clear(s.monB)
	s.monR = s.monR[:n]
	clear(s.monR)
	s.rngBlock = s.rngBlock[:n]
	// The engine writes every entry of probers and bulkSteps below n, but the
	// entries past it are cleared: like msgOf's, they would pin a larger
	// network's processes while the scratch cycles through the pool.
	// cohortFrom needs no clear: wake writes a node's entry before any read.
	clear(s.probers[n:cap(s.probers)])
	clear(s.bulkSteps[n:cap(s.bulkSteps)])
	s.probers = s.probers[:n]
	s.bulkSteps = s.bulkSteps[:n]
	s.cohortFrom = s.cohortFrom[:n]
	s.awake = s.awake[:bitrand.WordsFor(n)]
	clear(s.awake)
	s.awakeWords = s.awakeWords[:bitrand.WordsFor(bitrand.WordsFor(n))]
	clear(s.awakeWords)
}

// clique sizes the clique-cover accelerator buffers for count cliques.
func (s *scratch) clique(count int) ([]int32, []graph.NodeID) {
	if cap(s.cliqueTx) < count {
		s.cliqueTx = make([]int32, count)
		s.cliqueS = make([]graph.NodeID, count)
	}
	return s.cliqueTx[:count], s.cliqueS[:count]
}

// planes sizes the push kernel's three bit-planes for w words and clears
// them.
func (s *scratch) planes(w int) (tx, once, twice []uint64) {
	if cap(s.txWords) < w {
		s.txWords = make([]uint64, w)
		s.heardOnce = make([]uint64, w)
		s.heardTwice = make([]uint64, w)
	}
	s.txWords, s.heardOnce, s.heardTwice = s.txWords[:w], s.heardOnce[:w], s.heardTwice[:w]
	clear(s.txWords)
	clear(s.heardOnce)
	clear(s.heardTwice)
	return s.txWords, s.heardOnce, s.heardTwice
}

// selectedRows returns the scratch-owned rows of d's round topology under
// the committed partial selector sel (see graph.BuildSelected). It keeps
// the rows it last built when they were built for the same network and the
// same *SelectSet: a set is immutable, so its pointer names its edges, and
// the trials of one configuration share one build. No other selector is
// compared, since SelectFunc and SelectCrossCut hold funcs, which compare
// only by panicking; their rows are rebuilt for every epoch.
func (s *scratch) selectedRows(d *graph.Dual, sel graph.EdgeSelector) *graph.SparseNeighborMasks {
	set, _ := sel.(*graph.SelectSet)
	if set == nil || set != s.selSet || d != s.selNet {
		s.selRows.BuildSelected(d, sel)
		s.selNet, s.selSet = d, set
	}
	return &s.selRows
}

// arenaMatch returns the pooled process slab if it was built by the same
// factory for an identical configuration, nil otherwise.
func (s *scratch) arenaMatch(cfg Config, n int) []Process {
	if s.arenaProcs == nil || len(s.arenaProcs) != n ||
		s.arenaNet != cfg.Net || s.arenaAlg != cfg.Algorithm.Name() ||
		s.arenaProb != cfg.Spec.Problem || s.arenaSrc != cfg.Spec.Source ||
		!slices.Equal(s.arenaB, cfg.Spec.Broadcasters) ||
		!slices.Equal(s.arenaS, cfg.Spec.Sources) ||
		!slices.Equal(s.arenaInj, cfg.Spec.Injections) {
		return nil
	}
	return s.arenaProcs
}

// arenaStore records a freshly built slab and the configuration it belongs
// to. Spec slices are copied into scratch-owned storage.
func (s *scratch) arenaStore(cfg Config, procs []Process) {
	s.arenaProcs = procs
	s.arenaAlg = cfg.Algorithm.Name()
	s.arenaNet = cfg.Net
	s.arenaProb = cfg.Spec.Problem
	s.arenaSrc = cfg.Spec.Source
	s.arenaB = append(s.arenaB[:0], cfg.Spec.Broadcasters...)
	s.arenaS = append(s.arenaS[:0], cfg.Spec.Sources...)
	s.arenaInj = append(s.arenaInj[:0], cfg.Spec.Injections...)
}

// arenaDrop discards the slab (a reset attempt failed; it may be
// half-mutated).
func (s *scratch) arenaDrop() {
	s.arenaProcs = nil
	s.arenaNet = nil
	s.arenaAlg = ""
}

// rumor sizes the gossip monitor's n×k round-stamp matrix: row views over
// one flat backing array, both resized in place on reuse. Rows are capped so
// an append on one row can never bleed into the next. The monitor clears the
// entries itself.
func (s *scratch) rumor(n, k int) [][]int {
	if cap(s.monRumor) < n*k {
		s.monRumor = make([]int, n*k)
	}
	s.monRumor = s.monRumor[:n*k]
	if cap(s.monRows) < n {
		s.monRows = make([][]int, n)
	}
	s.monRows = s.monRows[:n]
	for u := 0; u < n; u++ {
		s.monRows[u] = s.monRumor[u*k : (u+1)*k : (u+1)*k]
	}
	return s.monRows
}
