package radio

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// Epoch is one entry of a topology schedule: from round Start onward the
// execution runs on Net, until the next epoch begins. Epochs are produced by
// the scenario layer (internal/scenario), which precompiles one immutable
// graph revision per epoch so the engine only swaps CSR views at boundaries.
type Epoch struct {
	// Start is the first round of the epoch. Epochs[0].Start must be 0 and
	// starts must be strictly increasing.
	Start int
	// Net is the epoch's dual graph. All epochs of a schedule share one
	// vertex set (same N); per-node process state carries across swaps.
	Net *graph.Dual
}

// Config describes one execution.
type Config struct {
	// Net is the dual graph network. Exactly today's static model: one
	// immutable topology for the whole execution.
	Net *graph.Dual
	// Epochs, when non-empty, is a topology schedule replacing the single
	// static Net: the execution starts on Epochs[0].Net and switches to each
	// subsequent epoch's network at its Start round. A nil/single-epoch
	// schedule is exactly the static path. Net may be left nil, or set to
	// Epochs[0].Net (anything else is an error).
	//
	// Adversary visibility contract: link processes commit against an Env
	// whose Net is pinned to the base topology (Epochs[0].Net) for the whole
	// execution and whose Epochs carries the full schedule, so oblivious
	// adversaries can pre-commit against the same churn the execution will
	// run under. Adaptive adversaries additionally observe the live
	// topology each round through View.EpochIdx/View.Net, which swapEpoch
	// keeps current; committed selectors apply per round to whatever
	// topology is live.
	Epochs []Epoch
	// Algorithm constructs the per-node processes.
	Algorithm Algorithm
	// Spec is the problem instance.
	Spec Spec
	// Link is the link process; its dynamic type determines the adversary
	// class (ObliviousLink, OnlineAdaptiveLink, or OfflineAdaptiveLink). A
	// nil Link means no unreliable edges ever appear: the static protocol
	// model on G.
	Link any
	// Seed drives all randomness: node coins, algorithm setup, adversary.
	Seed uint64
	// MaxRounds bounds the execution; 0 selects a generous default of
	// 64·n², covering every algorithm in this repository with slack. The
	// default only applies up to maxDefaultRoundsNodes nodes: beyond that,
	// 64·n² is an accidental near-infinite budget (6.4×10¹¹ rounds at
	// n = 10⁵), so large configurations must set MaxRounds explicitly or Run
	// fails with ErrBadConfig.
	MaxRounds int
	// Plan selects the delivery implementation (see DeliveryPlan). The zero
	// value PlanAuto re-derives the choice at every epoch commit; delivered
	// bits are identical under every plan.
	Plan DeliveryPlan
	// Recorder, when non-nil, receives per-round trace records.
	Recorder Recorder
	// UseCliqueCover enables the clique-tally delivery accelerator, which
	// helps on clique-structured networks (dual clique). Delivery semantics
	// are identical either way.
	UseCliqueCover bool
	// IgnoreCompletion runs the full MaxRounds budget even after the problem
	// is solved. Sampling adversaries use it so their presimulations cover
	// the whole horizon; Result.Solved and the completion fields still
	// reflect the first solving round.
	IgnoreCompletion bool
}

// Result summarizes an execution.
type Result struct {
	// Solved reports whether the problem completed within MaxRounds.
	Solved bool
	// Rounds is the number of rounds executed (the completion round + 1
	// when solved).
	Rounds int
	// Transmissions is the total number of transmissions.
	Transmissions int64
	// Deliveries is the total number of successful receptions.
	Deliveries int64
	// InformedAt, for global broadcast, maps each node to the round it
	// first held the message (source: 0; uninformed: -1). Nil for local.
	InformedAt []int
	// ReceiverDoneAt, for local broadcast, maps each node of R to the round
	// it was first satisfied (-1 if never, or not in R). Nil for global.
	ReceiverDoneAt []int
	// RumorAt, for gossip, maps [node][rumor index] to the round the node
	// first held the rumor (-1 if never). Rumor indices cover Spec.Sources
	// then Spec.Injections, in order. Nil for other problems.
	RumorAt [][]int
	// RumorStartAt, for gossip, maps each rumor index to the round it
	// entered the system: 0 for Spec.Sources, the injection round for
	// Spec.Injections. Nil for other problems.
	RumorStartAt []int
	// RumorDoneAt, for gossip, maps each rumor index to the round by which
	// every node held it (-1 if dissemination did not complete). Per-rumor
	// sojourn under contention is RumorDoneAt[i] - RumorStartAt[i].
	RumorDoneAt []int
	// TxByNode counts each node's transmissions: the energy profile of the
	// execution (radios spend most of their budget transmitting).
	TxByNode []int64
}

// Run executes the configuration to completion or MaxRounds: it starts an
// Execution, advances it to MaxRounds and finishes it.
func Run(cfg Config) (Result, error) {
	x, err := Start(cfg)
	if err != nil {
		return Result{}, err
	}
	x.Advance(x.cfg.MaxRounds)
	return x.Finish(), nil
}

// Execution is an execution that runs in steps: Start sets it up, Advance
// runs it on to a round count, and Finish ends it with its Result. Run is
// exactly these three steps, so advancing in any chunks and then finishing
// gives the Result Run gives, and the same recorded rounds. An execution
// that is not finished must be closed, or its pooled scratch falls to the
// GC. An Execution belongs to one goroutine; once it is finished or closed,
// Advance and Close do nothing and Finish panics.
type Execution struct {
	engine
	res Result
	// next is the number of rounds executed; stop is the round count the
	// execution ends at: MaxRounds, the solving round + 1 once the problem
	// is solved (unless IgnoreCompletion), or next once it is closed.
	next, stop int
}

// Start validates cfg and sets up its execution — the processes, the
// monitor, the adversary's commitment and the delivery plan — without
// running a round.
func Start(cfg Config) (*Execution, error) {
	x := new(Execution)
	if err := x.init(cfg); err != nil {
		return nil, err
	}
	x.stop = x.cfg.MaxRounds
	return x, nil
}

// Advance runs the execution on until rounds rounds have run in all, or it
// ends: at MaxRounds, or at the solving round unless IgnoreCompletion is
// set. A count at or below the rounds already run does nothing, and one
// past MaxRounds stops there.
//
//dglint:noalloc gate=TestAdvanceAllocs
func (x *Execution) Advance(rounds int) {
	e := &x.engine
	for ; x.next < min(rounds, x.stop); x.next++ {
		r := x.next
		if e.epochIdx+1 < len(e.epochs) && e.epochs[e.epochIdx+1].Start == r {
			e.swapEpoch()
		}
		e.step(r, &x.res)
		if !x.res.Solved && e.mon.done() {
			x.res.Solved = true
			x.res.Rounds = r + 1
			if !e.cfg.IgnoreCompletion {
				x.stop = r + 1
			}
		}
	}
}

// Finish ends the execution and returns its Result over the rounds run so
// far: Rounds is the solving round + 1 when solved, and the rounds run
// otherwise. It closes the execution.
func (x *Execution) Finish() Result {
	if x.sc == nil {
		panic("radio: Finish on an ended Execution")
	}
	res := x.res
	if !res.Solved {
		res.Rounds = x.next
	}
	x.fill(&res)
	x.Close()
	return res
}

// Close ends the execution without a Result and releases its scratch;
// closing an ended execution does nothing.
func (x *Execution) Close() {
	x.stop = x.next
	x.release()
}

// ErrBadConfig wraps configuration validation failures.
var ErrBadConfig = errors.New("radio: bad config")

// maxDefaultRoundsNodes is the largest network the 64·n² MaxRounds default
// applies to. Every algorithm in this repository completes in far fewer
// rounds at that size, and beyond it the quadratic default stops being a
// safety net and becomes a footgun (6.4×10¹¹ rounds at n = 10⁵), so larger
// configurations must state their budget.
const maxDefaultRoundsNodes = 4096

type engine struct {
	cfg   Config
	net   *graph.Dual
	n     int
	procs []Process
	// epochs is the validated topology schedule (nil on the static path);
	// epochIdx is the index of the current epoch.
	epochs   []Epoch
	epochIdx int
	// probers[u] is non-nil when procs[u] implements TransmitProber.
	probers []TransmitProber
	// awake is the set of nodes the per-round loops visit, one bit per node
	// in the pooled scratch: every process except the Dormant ones that
	// reported dormant at set-up. A dormant node joins it when a delivered
	// message ends its dormancy (see receive) and never leaves it; the set
	// carries across epoch swaps like the processes themselves. awakeWords
	// is its second level: bit i is set iff awake word i has a bit set, so
	// awakeRun passes 64 empty words with one test.
	awake, awakeWords []uint64

	// master seeds every stream; rngs[u] is node u's coin stream, a view of
	// the scratch's rngBlock, seeded when u wakes (see wake).
	master bitrand.Source
	rngs   []bitrand.Source

	mon monitor

	// Adversary, exactly one of these is set when Link != nil.
	committed Schedule
	online    OnlineAdaptiveLink
	offline   OfflineAdaptiveLink
	env       *Env
	// view is the per-round adaptive view, reused across rounds (the View
	// contract makes it call-scoped), so adaptive trials allocate exactly
	// what static trials do.
	view View

	accel *graph.CliqueCover

	// Flat CSR adjacency of the network, hoisted out of the Dual so the
	// delivery loop walks the backing arrays directly: gAdj[gOffs[v]:
	// gOffs[v+1]] is v's reliable neighbor row, exOffs/exAdj the E'\E rows.
	gOffs, exOffs []int32
	gAdj, exAdj   []int32

	// Word-parallel delivery state, derived per epoch by setupPlan. plan is
	// the epoch's resolved delivery plan (never PlanAuto); txWords,
	// heardOnce and heardTwice are the push kernel's pooled bit-planes, all
	// zero between rounds. bulkSteps[u] is non-nil when procs[u] implements
	// BulkStepper; allBulk reports whether every entry is.
	plan       DeliveryPlan
	txWords    []uint64
	heardOnce  []uint64
	heardTwice []uint64
	bulkSteps  []BulkStepper
	allBulk    bool
	// cohort is the schedule the awake nodes share while the cohort path is
	// on (see CohortMember): the first member's to wake, nil before one
	// wakes, and nil for good once cohortOff is set, which happens when a
	// node that is not a member wakes, a member names another cohort, or not
	// every process is a BulkStepper. cohortFrom[u] is awake member u's
	// first round, a view of the scratch's slice.
	cohort     Cohort
	cohortOff  bool
	cohortFrom []int

	// Mask state, set when plan is PlanBitmap: the epoch's block-sparse rows
	// in node order, for G, for G' (nil without a link), and for G plus the
	// E'\E edges of a committed static partial selector (sparseSel, in the
	// scratch; sparseGP is then nil).
	sparseG   *graph.SparseNeighborMasks
	sparseGP  *graph.SparseNeighborMasks
	sparseSel *graph.SparseNeighborMasks

	txByNode []int64

	// Per-round buffers, views into the pooled scratch (see scratch.go).
	// tally is the CSR walk's one word per node (see deliver), all zero
	// between rounds; touched lists the listeners the walk tallied.
	sc        *scratch
	tally     []int32
	touched   []graph.NodeID
	tx        []graph.NodeID
	msgOf     []*Message
	probs     []float64
	lastTx    []graph.NodeID
	noise     []Message
	cliqueTx  []int32
	cliqueS   []graph.NodeID
	recordBuf []Delivery
}

// init sets the engine up for cfg (see Start). On failure the engine holds
// no scratch.
func (e *engine) init(cfg Config) error {
	if len(cfg.Epochs) > 0 {
		eps := cfg.Epochs
		if eps[0].Start != 0 {
			return fmt.Errorf("%w: epoch schedule starts at round %d, want 0", ErrBadConfig, eps[0].Start)
		}
		for i, ep := range eps {
			if ep.Net == nil {
				return fmt.Errorf("%w: epoch %d has nil network", ErrBadConfig, i)
			}
			if ep.Net.N() != eps[0].Net.N() {
				return fmt.Errorf("%w: epoch %d has %d nodes, epoch 0 has %d (the vertex set is fixed across epochs)",
					ErrBadConfig, i, ep.Net.N(), eps[0].Net.N())
			}
			if i > 0 && ep.Start <= eps[i-1].Start {
				return fmt.Errorf("%w: epoch %d starts at round %d, not after epoch %d (round %d)",
					ErrBadConfig, i, ep.Start, i-1, eps[i-1].Start)
			}
		}
		if cfg.Net != nil && cfg.Net != eps[0].Net {
			return fmt.Errorf("%w: Net is set but differs from Epochs[0].Net; leave Net nil with an epoch schedule", ErrBadConfig)
		}
		// Normalize: the initial network is the schedule's first epoch, so
		// everything keyed off cfg.Net (process construction, the arena, the
		// adversary Env) sees the epoch-0 topology.
		cfg.Net = eps[0].Net
	}
	if cfg.Net == nil {
		return fmt.Errorf("%w: nil network", ErrBadConfig)
	}
	if cfg.Algorithm == nil {
		return fmt.Errorf("%w: nil algorithm", ErrBadConfig)
	}
	if len(cfg.Spec.Injections) > 0 && cfg.Spec.Problem != Gossip {
		return fmt.Errorf("%w: rumor injections are only valid for gossip, not %v", ErrBadConfig, cfg.Spec.Problem)
	}
	n := cfg.Net.N()
	if n > math.MaxInt32 {
		return fmt.Errorf("%w: %d nodes do not fit the delivery tally's int32 words (at most %d)", ErrBadConfig, n, math.MaxInt32)
	}
	if cfg.MaxRounds <= 0 {
		if n > maxDefaultRoundsNodes {
			// int64 math: at n = 10⁶ the would-be default is 6.4×10¹³ rounds,
			// which must survive into the message intact on any platform.
			return fmt.Errorf("%w: no MaxRounds set for n=%d nodes: the computed 64·n² default would be %d rounds, and the default is only allowed up to the %d-node cap — set an explicit round budget",
				ErrBadConfig, n, 64*int64(n)*int64(n), maxDefaultRoundsNodes)
		}
		cfg.MaxRounds = 64 * n * n
	}
	if cfg.Plan < PlanAuto || cfg.Plan > PlanBitmap {
		return fmt.Errorf("%w: unknown delivery plan %d", ErrBadConfig, cfg.Plan)
	}
	if cfg.Plan == PlanBitmap && cfg.UseCliqueCover {
		return fmt.Errorf("%w: %v and UseCliqueCover are mutually exclusive delivery accelerators", ErrBadConfig, cfg.Plan)
	}
	*e = engine{cfg: cfg, net: cfg.Net, n: n, epochs: cfg.Epochs, sc: getScratch(n)}
	//dglint:allow viewescape: engine-owned hoist, re-synced by swapEpoch at every epoch boundary
	e.gOffs, e.gAdj = cfg.Net.G().CSR()
	//dglint:allow viewescape: engine-owned hoist, re-synced by swapEpoch at every epoch boundary
	e.exOffs, e.exAdj = cfg.Net.ExtraCSR()
	e.master.Reseed(cfg.Seed)
	fail := func(err error) error {
		e.release()
		return err
	}

	// Process arena: when the algorithm is a ProcessFactory and this scratch
	// last ran an identical configuration, reset the pooled slab in place.
	// Both paths draw from an identically derived construction stream
	// (SplitSeed does not advance the master), so arena hits and misses are
	// observationally identical.
	e.sc.algRng.Reseed(e.master.SplitSeed(0x0a16))
	if pf, ok := cfg.Algorithm.(ProcessFactory); ok {
		if slab := e.sc.arenaMatch(cfg, n); slab != nil {
			if pf.ResetProcesses(slab, cfg.Net, cfg.Spec, &e.sc.algRng) {
				e.procs = slab
			} else {
				e.sc.arenaDrop()
				e.sc.algRng.Reseed(e.master.SplitSeed(0x0a16))
			}
		}
	}
	if e.procs == nil {
		e.procs = cfg.Algorithm.NewProcesses(cfg.Net, cfg.Spec, &e.sc.algRng)
		if len(e.procs) != n {
			return fail(fmt.Errorf("%w: algorithm %q produced %d processes for %d nodes",
				ErrBadConfig, cfg.Algorithm.Name(), len(e.procs), n))
		}
		if _, ok := cfg.Algorithm.(ProcessFactory); ok {
			e.sc.arenaStore(cfg, e.procs)
		}
	}
	e.probers = e.sc.probers
	e.bulkSteps = e.sc.bulkSteps
	e.awake, e.awakeWords = e.sc.awake, e.sc.awakeWords
	e.rngs = e.sc.rngBlock
	e.cohortFrom = e.sc.cohortFrom
	// wake stores a cohort member's frame, so the frames are in place first.
	e.msgOf = e.sc.msgOf
	e.noise = e.sc.noise
	e.allBulk = true
	for u, p := range e.procs {
		if tp, ok := p.(TransmitProber); ok {
			e.probers[u] = tp
		} else {
			e.probers[u] = nil
		}
		bs, ok := p.(BulkStepper)
		e.bulkSteps[u] = bs
		e.allBulk = e.allBulk && ok
		if d, ok := p.(Dormant); !ok || !d.Dormant() {
			e.wake(u)
		}
	}
	if !e.allBulk {
		e.cohort, e.cohortOff = nil, true
	}

	var err error
	switch cfg.Spec.Problem {
	case GlobalBroadcast:
		var gm *globalMonitor
		gm, err = newGlobalMonitor(n, cfg.Spec.Source, e.sc)
		e.mon = gm
	case LocalBroadcast:
		var lm *localMonitor
		lm, err = newLocalMonitor(cfg.Net, cfg.Spec.Broadcasters, e.sc)
		e.mon = lm
	case Gossip:
		var gm *gossipMonitor
		gm, err = newGossipMonitor(n, cfg.Spec, cfg.MaxRounds, e.sc)
		e.mon = gm
	default:
		err = fmt.Errorf("unknown problem %v", cfg.Spec.Problem)
	}
	if err != nil {
		return fail(fmt.Errorf("%w: %v", ErrBadConfig, err))
	}

	if cfg.Link != nil {
		e.env = &Env{
			Net:       cfg.Net,
			Spec:      cfg.Spec,
			Algorithm: cfg.Algorithm,
			Rng:       e.master.Split(0xadf5),
			MaxRounds: cfg.MaxRounds,
			Epochs:    e.epochs,
		}
		switch link := cfg.Link.(type) {
		case ObliviousLink:
			e.committed = link.CommitSchedule(e.env)
			if e.committed == nil {
				return fail(fmt.Errorf("%w: oblivious link committed nil schedule", ErrBadConfig))
			}
		case OnlineAdaptiveLink:
			e.online = link
		case OfflineAdaptiveLink:
			e.offline = link
		default:
			return fail(fmt.Errorf("%w: link %T implements no adversary interface", ErrBadConfig, cfg.Link))
		}
	}

	if cfg.UseCliqueCover {
		// Memoized per graph: repeated trials on the same network share one
		// cover instead of rebuilding it per execution.
		e.accel = graph.CliqueCoverOf(cfg.Net.G())
	}

	e.tally = e.sc.tally
	e.txByNode = e.sc.txByNode
	e.touched = e.sc.touched[:0]
	e.tx = e.sc.tx[:0]
	e.probs = e.sc.probs
	e.lastTx = e.sc.lastTx[:0]
	e.recordBuf = e.sc.recordBuf[:0]
	if e.accel != nil {
		e.cliqueTx, e.cliqueS = e.sc.clique(e.accel.Count)
	}

	e.setupPlan()
	return nil
}

// release ends the engine: it closes a committed schedule that holds
// resources (see ScheduleCloser) and returns the scratch to the pool. The
// engine (and the monitors built over the scratch) must not be used
// afterwards; releasing it again does nothing.
func (e *engine) release() {
	if e.sc == nil {
		return
	}
	if c, ok := e.committed.(ScheduleCloser); ok {
		c.Close()
	}
	// Hand the append-grown buffer back so its capacity is retained.
	if e.recordBuf != nil {
		e.sc.recordBuf = e.recordBuf
	}
	sc := e.sc
	e.sc = nil
	putScratch(sc)
}

// swapEpoch advances to the next epoch of the topology schedule: the
// current network pointer and its hoisted CSR views change, and the clique
// cover accelerator re-keys to the new revision (CliqueCoverOf memoizes per
// graph, so repeated trials over one schedule share the covers). Process and
// monitor state is untouched — nodes persist across topology churn. The
// adversary Env is deliberately untouched too: Env.Net stays pinned to the
// epoch-0 base (its documented contract) while adaptive links track the
// swap through View.EpochIdx/View.Net, which step rebuilds from e.epochIdx
// and e.net every round.
//
//dglint:noalloc gate=TestHotPathAllocs
func (e *engine) swapEpoch() {
	e.epochIdx++
	net := e.epochs[e.epochIdx].Net
	e.net = net
	//dglint:allow viewescape: this is the epoch-boundary re-hoist the contract requires
	e.gOffs, e.gAdj = net.G().CSR()
	//dglint:allow viewescape: this is the epoch-boundary re-hoist the contract requires
	e.exOffs, e.exAdj = net.ExtraCSR()
	if e.cfg.UseCliqueCover {
		e.accel = graph.CliqueCoverOf(net.G())
		e.cliqueTx, e.cliqueS = e.sc.clique(e.accel.Count)
	}
	// Re-derive the delivery plan for the new topology: density can differ
	// per revision, and the mask rows (memoized per graph) must re-hoist
	// exactly like the CSR views above.
	e.setupPlan()
	// Epoch-aware processes re-key their own topology-derived structure
	// (e.g. the derand decomposition memo). The type assertion allocates
	// nothing, and non-aware algorithms skip the loop body entirely.
	for _, p := range e.procs {
		if ea, ok := p.(EpochAware); ok {
			ea.OnEpoch(e.epochIdx, net)
		}
	}
}

func (e *engine) fill(res *Result) {
	res.TxByNode = append([]int64(nil), e.txByNode...)
	switch m := e.mon.(type) {
	case *globalMonitor:
		res.InformedAt = append([]int(nil), m.informedAt...)
	case *localMonitor:
		res.ReceiverDoneAt = append([]int(nil), m.doneAt...)
	case *gossipMonitor:
		// Copy the pooled n×k matrix out as rows over one flat backing
		// array: two allocations instead of one per node.
		n, k := len(m.haveAt), m.k
		flat := make([]int, 0, n*k)
		res.RumorAt = make([][]int, n)
		for u, row := range m.haveAt {
			flat = append(flat, row...)
			res.RumorAt[u] = flat[u*k : (u+1)*k : (u+1)*k]
		}
		// Per-rumor entry and completion rounds, over one backing array.
		meta := make([]int, 2*k)
		res.RumorStartAt = meta[:k:k]
		res.RumorDoneAt = meta[k:]
		for j, inj := range e.cfg.Spec.Injections {
			res.RumorStartAt[len(e.cfg.Spec.Sources)+j] = inj.Round
		}
		for i := 0; i < k; i++ {
			done := -1
			for u := 0; u < n; u++ {
				at := m.haveAt[u][i]
				if at < 0 {
					done = -1
					break
				}
				if at > done {
					done = at
				}
			}
			res.RumorDoneAt[i] = done
		}
	}
}

// step executes one round.
//
//dglint:noalloc gate=TestHotPathAllocs
func (e *engine) step(r int, res *Result) {
	// The cohort's probability for the round, read once for the view and
	// the coins (see CohortMember).
	var p float64
	if e.cohort != nil {
		p = e.cohort.RoundProb(r)
	}

	// 1. Adaptive adversaries observe state-determined probabilities first.
	var view *View
	if e.online != nil || e.offline != nil {
		if e.cohort != nil {
			e.cohortProbs(r, p)
		} else {
			for u, tp := range e.probers {
				if tp != nil {
					e.probs[u] = tp.TransmitProb(r)
				} else {
					e.probs[u] = -1
				}
			}
		}
		e.view = View{
			Round:            r,
			EpochIdx:         e.epochIdx,
			Net:              e.net,
			TransmitProbs:    e.probs,
			LastTransmitters: e.lastTx,
			Informed:         e.mon.progress(),
		}
		view = &e.view
	}
	var selector graph.EdgeSelector
	switch {
	case e.committed != nil:
		selector = e.committed.SelectorFor(r)
	case e.online != nil:
		selector = e.online.ChooseOnline(e.env, view)
	}

	// 2. Flip the coins: every awake process steps, lowest id first, so tx
	// comes out ascending. A dormant node would listen without drawing, so
	// skipping it leaves every stream where stepping it would. When every
	// process is a BulkStepper, the engine runs the round's Bernoulli trials
	// itself — same per-node streams, same ascending order, so the draws are
	// bit-for-bit identical to the Step dispatch — and fills the transmit set
	// without constructing Actions; with the cohort on it also skips the
	// per-node probability call.
	e.tx = e.tx[:0]
	rngs := e.rngs
	switch {
	case e.cohort != nil:
		e.cohortCoins(r, p)
	case e.allBulk:
		e.bulkCoins(r)
	default:
		procs := e.procs
		for lo, hi := e.awakeRun(0); lo < e.n; lo, hi = e.awakeRun(hi) {
			for u := lo; u < hi; u++ {
				act := procs[u].Step(r, &rngs[u])
				if act.Transmit {
					if act.Msg == nil {
						// A transmission without a message is treated as
						// noise: it occupies the channel but delivers
						// nothing. The cached per-node frame avoids an
						// allocation per transmission.
						act.Msg = &e.noise[u]
					}
					e.tx = append(e.tx, u)
					e.msgOf[u] = act.Msg
					e.txByNode[u]++
				}
			}
		}
	}
	res.Transmissions += int64(len(e.tx))

	// 3. The offline adaptive adversary sees the realized transmitters.
	if e.offline != nil {
		selector = e.offline.ChooseOffline(e.env, view, e.tx)
	}
	if selector == nil {
		selector = graph.SelectNone{}
	}

	// 4. Compute deliveries and hand them out.
	deliveries := e.deliver(selector, r, res)

	if e.cfg.Recorder != nil {
		// Transmitters and Deliveries are engine-owned scratch: recorders
		// that retain them copy (see the RoundRecord contract).
		rec := RoundRecord{
			Round:        r,
			Transmitters: e.tx,
			Deliveries:   deliveries,
			SelectorKind: selectorKind(selector),
			Selector:     selector,
		}
		e.cfg.Recorder.Record(rec)
	}

	// Remember this round's transmitters for the next round's view. Only
	// adaptive adversaries read LastTransmitters.
	if e.online != nil || e.offline != nil {
		e.lastTx = append(e.lastTx[:0], e.tx...)
	}
}

// bulkCoins runs the round's coins when every process is a BulkStepper but
// the cohort is off: each awake node flips Coin(TransmitProb(r)) from its own
// stream in ascending order, and transmits its Frame on heads. Nodes that
// share a schedule report the same p in a row, so the coin threshold is
// recomputed only when p changes: for 0 < p < 1, CoinBelow(CoinThreshold(p))
// is Coin(p), and every other p (≤ 0, ≥ 1, NaN) goes through Coin itself.
func (e *engine) bulkCoins(r int) {
	bulk, rngs := e.bulkSteps, e.rngs
	var last float64 // the p that t belongs to; 0 until a p in (0, 1) is seen
	var t uint64
	for lo, hi := e.awakeRun(0); lo < e.n; lo, hi = e.awakeRun(hi) {
		for u := lo; u < hi; u++ {
			p := bulk[u].TransmitProb(r)
			var heads bool
			if p > 0 && p < 1 {
				if p != last {
					last, t = p, bitrand.CoinThreshold(p)
				}
				heads = rngs[u].CoinBelow(t)
			} else {
				heads = rngs[u].Coin(p)
			}
			if heads {
				e.transmitFrame(r, u)
			}
		}
	}
}

// cohortProbs fills the view's TransmitProbs from the cohort's round-r
// probability p: p for every awake node with from ≤ r, and 0 for every
// other node. These are the values the per-node TransmitProb calls return —
// a member reports 0 before from, and a dormant bulk stepper 0 by the
// Dormant contract — in the same order, so any sum over them is unchanged.
func (e *engine) cohortProbs(r int, p float64) {
	probs, from := e.probs, e.cohortFrom
	clear(probs)
	for lo, hi := e.awakeRun(0); lo < e.n; lo, hi = e.awakeRun(hi) {
		for u := lo; u < hi; u++ {
			if from[u] <= r {
				probs[u] = p
			}
		}
	}
}

// cohortCoins runs the round's coins with the cohort on: every awake node
// with from ≤ r flips one coin at the round's probability p, from its own
// stream in ascending order, and transmits on heads the frame joinCohort
// stored for it. As in bitrand's Coin, p ≤ 0 draws nothing and p ≥ 1
// transmits without a draw; otherwise bitrand.CohortCoins flips each awake
// run's coins, one 53-bit draw against the round's threshold a node.
func (e *engine) cohortCoins(r int, p float64) {
	if p <= 0 {
		return
	}
	from := e.cohortFrom
	if p >= 1 {
		for lo, hi := e.awakeRun(0); lo < e.n; lo, hi = e.awakeRun(hi) {
			for u := lo; u < hi; u++ {
				if from[u] <= r {
					e.tx = append(e.tx, u)
				}
			}
		}
	} else {
		t := bitrand.CoinThreshold(p)
		for lo, hi := e.awakeRun(0); lo < e.n; lo, hi = e.awakeRun(hi) {
			e.tx = bitrand.CohortCoins(e.tx, e.rngs, from, lo, hi, r, t)
		}
	}
	for _, u := range e.tx {
		e.txByNode[u]++
	}
}

// transmitFrame adds bulk stepper u to the round's transmitters with its
// round-r Frame (see frame).
func (e *engine) transmitFrame(r int, u graph.NodeID) {
	e.tx = append(e.tx, u)
	e.msgOf[u] = e.frame(r, u)
	e.txByNode[u]++
}

// frame returns bulk stepper u's round-r Frame, or its noise frame when
// Frame is nil.
func (e *engine) frame(r int, u graph.NodeID) *Message {
	if msg := e.bulkSteps[u].Frame(r); msg != nil {
		return msg
	}
	return &e.noise[u]
}

// The CSR walk's tally holds one word per node for the round: 0 means the
// node has heard no transmitter yet, v+1 that it has heard exactly one, v,
// and the negative values below that it transmits, that it has heard two or
// more (a collision), or that the hand-out has served it, so the silence
// pass skips it. A transmitter or a collided listener stays where it is
// whatever else it hears, so its outcome is fixed. Every word is back at 0
// when the round ends.
const (
	tallyTx       int32 = -1
	tallyCollided int32 = -2
	tallyServed   int32 = -3
)

// deliver computes receptions under the round topology G ∪ selector(E'\E)
// and hands every received message out (see receive). Silence and
// collisions go to every awake process, unless every process is a
// BulkStepper, which ignores them (see BulkStepper): then only the messages
// that reach dormant nodes are handed out. It returns the delivery list
// only when a recorder is attached (nil otherwise); the list is backed by
// the engine's reusable buffer and is valid only until the next round.
//
//dglint:noalloc gate=TestHotPathAllocs
func (e *engine) deliver(selector graph.EdgeSelector, r int, res *Result) []Delivery {
	// Word-parallel dispatch: on a bitmap epoch, every round whose selector
	// has mask rows goes through the push kernel. The complete-graph fast
	// path below stays first in line (it is O(n) with no per-word work).
	if e.plan == PlanBitmap && !(selector.All() && e.net.UnionComplete()) {
		if m := e.roundMasks(selector); m != nil {
			return e.deliverPush(r, res, m)
		}
	}

	var recorded []Delivery
	record := e.cfg.Recorder != nil
	if record {
		recorded = e.recordBuf[:0]
	}
	defer func() {
		if record {
			// Keep the append-grown buffer for the next round.
			e.recordBuf = recorded[:0]
		}
	}()

	// Fast path: the round topology is the complete graph. Every listener
	// neighbors every transmitter, so with ≥2 transmitters everyone
	// collides, and with exactly one, everyone receives.
	if selector.All() && e.net.UnionComplete() {
		if len(e.tx) == 1 {
			v := e.tx[0]
			msg := e.msgOf[v]
			for u := 0; u < e.n; u++ {
				if u == v {
					if !e.allBulk {
						e.procs[u].Deliver(r, nil)
					}
					continue
				}
				e.receive(r, u, msg, res)
				if record {
					recorded = append(recorded, Delivery{To: u, From: v})
				}
			}
		} else if !e.allBulk {
			e.silence(r)
		}
		return recorded
	}

	tally, touched := e.tally, e.touched[:0]
	for _, v := range e.tx {
		tally[v] = tallyTx
	}
	// hear tallies transmitter v at listener u.
	hear := func(u, v graph.NodeID) {
		switch t := tally[u]; {
		case t == 0:
			tally[u] = int32(v) + 1
			touched = append(touched, u)
		case t > 0:
			tally[u] = tallyCollided
		}
	}

	// Reliable edges.
	if e.accel != nil {
		clear(e.cliqueTx)
		for _, v := range e.tx {
			c := e.accel.Of[v]
			e.cliqueTx[c]++
			e.cliqueS[c] = v
		}
		if len(e.tx) > 0 {
			// The clique pass comes first, so every listener's word is
			// still 0 and every other word is a transmitter's.
			for u := 0; u < e.n; u++ {
				if tally[u] != 0 {
					continue
				}
				c := e.accel.Of[u]
				switch k := e.cliqueTx[c]; {
				case k == 0:
					continue
				case k == 1:
					tally[u] = int32(e.cliqueS[c]) + 1
				default:
					tally[u] = tallyCollided
				}
				touched = append(touched, u)
			}
		}
		for _, edge := range e.accel.Residual {
			if tally[edge.U] == tallyTx {
				hear(edge.V, edge.U)
			}
			if tally[edge.V] == tallyTx {
				hear(edge.U, edge.V)
			}
		}
	} else {
		for _, v := range e.tx {
			for _, u := range e.gAdj[e.gOffs[v]:e.gOffs[v+1]] {
				hear(graph.NodeID(u), v)
			}
		}
	}

	// Unreliable edges chosen this round.
	if !selector.None() {
		if selector.All() {
			for _, v := range e.tx {
				for _, u := range e.exAdj[e.exOffs[v]:e.exOffs[v+1]] {
					hear(graph.NodeID(u), v)
				}
			}
		} else {
			// Ask only about listeners whose outcome the answer can change
			// (tally ≥ 0): a transmitter hears nothing, and a listener that
			// already heard two transmitters collides whatever the answer.
			// Includes is pure (see graph.EdgeSelector), so a skipped query
			// changes nothing.
			for _, v := range e.tx {
				for _, u := range e.exAdj[e.exOffs[v]:e.exOffs[v+1]] {
					if tally[u] >= 0 && selector.Includes(v, graph.NodeID(u)) {
						hear(graph.NodeID(u), v)
					}
				}
			}
		}
	}

	// Hand out results: touched listeners receive their message. Unless
	// every process is a BulkStepper, an awake touched listener hears a
	// collision and every other awake node (silent listeners and all
	// transmitters) hears nil: the hand-out marks the touched nodes served,
	// including nodes this round woke, so the silence pass skips them.
	for _, u := range touched {
		if t := tally[u]; t > 0 {
			v := graph.NodeID(t - 1)
			e.receive(r, u, e.msgOf[v], res)
			if record {
				recorded = append(recorded, Delivery{To: u, From: v})
			}
		} else if !e.allBulk && e.isAwake(u) {
			e.procs[u].Deliver(r, nil) // collision
		}
		tally[u] = tallyServed
	}
	if !e.allBulk {
		e.silence(r)
	}
	for _, u := range touched {
		tally[u] = 0
	}
	for _, v := range e.tx {
		tally[v] = 0
	}
	e.touched = touched
	return recorded
}

// isAwake reports whether u is in the awake set.
func (e *engine) isAwake(u graph.NodeID) bool {
	return e.awake[u>>6]>>(uint(u)&63)&1 != 0
}

// receive hands u the round's message and reports it to the monitor. An
// awake node of an all-BulkStepper execution is not handed it, since the
// message would change nothing (see BulkStepper). A dormant node is asked
// again whether it is still dormant — the only point at which dormancy can
// end — and joins the awake set once it is not; it must be a Dormant
// process, since every other process started awake.
func (e *engine) receive(r int, u graph.NodeID, msg *Message, res *Result) {
	if awake := e.isAwake(u); !awake || !e.allBulk {
		p := e.procs[u]
		p.Deliver(r, msg)
		if !awake && !p.(Dormant).Dormant() {
			e.wake(u)
		}
	}
	e.mon.observe(r, u, msg)
	res.Deliveries++
}

// wake adds u to the awake set, seeds its coin stream and, while the
// cohort is not off, asks it for its cohort. Seeding at wake rather than at
// set-up is exact: a dormant node draws nothing from its stream, and the
// master is never advanced after set-up (SplitSeed leaves it where it is),
// so the seed u gets here is the one set-up would have given it and the
// stream is untouched until now.
func (e *engine) wake(u graph.NodeID) {
	e.awake[u>>6] |= 1 << (uint(u) & 63)
	e.awakeWords[u>>12] |= 1 << (uint(u>>6) & 63)
	e.rngs[u].Reseed(e.master.SplitSeed(0x20de, uint64(u)))
	if !e.cohortOff {
		e.joinCohort(u)
	}
}

// joinCohort keeps woken node u's first cohort round and its frame, which
// is one message for the rest of the execution (see CohortMember), or
// switches the cohort off for the rest of the execution when u is not a
// member or names a cohort other than the execution's.
func (e *engine) joinCohort(u graph.NodeID) {
	m, ok := e.procs[u].(CohortMember)
	if !ok {
		e.cohort, e.cohortOff = nil, true
		return
	}
	c, from := m.Cohort()
	if e.cohort == nil {
		e.cohort = c
	}
	if c == nil || c != e.cohort {
		e.cohort, e.cohortOff = nil, true
		return
	}
	e.cohortFrom[u] = from
	e.msgOf[u] = e.frame(from, u)
}

// silence hands nil to every awake node except those the CSR walk's
// hand-out already served. Dormant nodes ignore silence by contract, so they
// are skipped.
func (e *engine) silence(r int) {
	procs, tally := e.procs, e.tally
	for lo, hi := e.awakeRun(0); lo < e.n; lo, hi = e.awakeRun(hi) {
		for u := lo; u < hi; u++ {
			if tally[u] != tallyServed {
				procs[u].Deliver(r, nil)
			}
		}
	}
}

// awakeRun returns the first run [lo, hi) of consecutive awake nodes at or
// after u; lo is n when there is none. The per-round loops walk the awake
// set run by run with a plain loop inside each run. The start of a run is
// found through the second level, which passes 64 empty awake words a test,
// so a round with few nodes awake costs them and not n/64 words; a round
// with every node awake pays one scan of the bitmap on top of a loop over
// all n. Bits at n and above are never set, so a run never extends past n.
func (e *engine) awakeRun(u int) (lo, hi int) {
	if u >= e.n {
		return e.n, e.n
	}
	wi := u >> 6
	w := e.awake[wi] >> (uint(u) & 63)
	if w == 0 {
		if wi = e.nextAwakeWord(wi + 1); wi < 0 {
			return e.n, e.n
		}
		u, w = wi<<6, e.awake[wi]
	}
	u += bits.TrailingZeros64(w)
	for hi = u; hi < e.n; hi = (hi | 63) + 1 {
		if w := ^e.awake[hi>>6] >> (uint(hi) & 63); w != 0 {
			return u, hi + bits.TrailingZeros64(w)
		}
	}
	return u, e.n
}

// nextAwakeWord returns the index of the first nonzero awake word at or
// after wi, or -1 when there is none.
func (e *engine) nextAwakeWord(wi int) int {
	words := e.awakeWords
	si := wi >> 6
	if si >= len(words) {
		return -1
	}
	if s := words[si] >> (uint(wi) & 63); s != 0 {
		return wi + bits.TrailingZeros64(s)
	}
	for si++; si < len(words); si++ {
		if s := words[si]; s != 0 {
			return si<<6 + bits.TrailingZeros64(s)
		}
	}
	return -1
}
