package radio

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// hideBulk wraps an algorithm so the engine sees no BulkStepper: every
// BulkStepper process is replaced by a stepProc that forwards Process,
// TransmitProber, Dormant and EpochAware, but not Frame. The engine then
// dispatches Step per node and hands silence to every awake node, as it does
// for any execution that is not all BulkSteppers, so a run of the wrapper is
// the Step-dispatch witness for the bulk coin loop. Like hideDormancy, it has
// a Name of its own and is no ProcessFactory.
type hideBulk struct{ Algorithm }

func (h hideBulk) Name() string { return h.Algorithm.Name() + "+step" }

func (h hideBulk) NewProcesses(net *graph.Dual, spec Spec, rng *bitrand.Source) []Process {
	procs := h.Algorithm.NewProcesses(net, spec, rng)
	for u, p := range procs {
		if bs, ok := p.(BulkStepper); ok {
			procs[u] = stepProc{bs}
		}
	}
	return procs
}

type stepProc struct{ p BulkStepper }

func (s stepProc) Step(r int, rng *bitrand.Source) Action { return s.p.Step(r, rng) }
func (s stepProc) Deliver(r int, msg *Message)            { s.p.Deliver(r, msg) }
func (s stepProc) TransmitProb(r int) float64             { return s.p.TransmitProb(r) }

// Dormant reports false for a process without the extension, which the
// engine treats exactly like not implementing it: awake from the start.
func (s stepProc) Dormant() bool {
	d, ok := s.p.(Dormant)
	return ok && d.Dormant()
}

func (s stepProc) OnEpoch(epoch int, net *graph.Dual) {
	if ea, ok := s.p.(EpochAware); ok {
		ea.OnEpoch(epoch, net)
	}
}

// hideCohort wraps an algorithm so the engine sees no CohortMember: every
// member is replaced by a noCohort that forwards BulkStepper, Dormant and
// EpochAware, but not Cohort. The engine then asks every awake node for its
// probability, as it does whenever the cohort is off, so a run of the
// wrapper is the per-node witness for the cohort loop and the cohort's view
// fill. Like hideBulk, it has a Name of its own and is no ProcessFactory.
type hideCohort struct{ Algorithm }

func (h hideCohort) Name() string { return h.Algorithm.Name() + "+nocohort" }

func (h hideCohort) NewProcesses(net *graph.Dual, spec Spec, rng *bitrand.Source) []Process {
	procs := h.Algorithm.NewProcesses(net, spec, rng)
	for u, p := range procs {
		if m, ok := p.(CohortMember); ok {
			procs[u] = noCohort{m}
		}
	}
	return procs
}

// noCohort is a cohort member seen as a plain BulkStepper.
type noCohort struct{ BulkStepper }

// Dormant reports false for a process without the extension, as stepProc's
// does.
func (c noCohort) Dormant() bool {
	d, ok := c.BulkStepper.(Dormant)
	return ok && d.Dormant()
}

func (c noCohort) OnEpoch(epoch int, net *graph.Dual) {
	if ea, ok := c.BulkStepper.(EpochAware); ok {
		ea.OnEpoch(epoch, net)
	}
}

// deliveryCase is one delivery mechanism of the engine, reached by a
// recorder-free global broadcast of a batchAlg-shaped algorithm.
type deliveryCase struct {
	name string
	cfg  Config
}

// deliveryMechanisms returns one configuration per delivery mechanism: the
// CSR walk (with a partial selector, and PlanAuto on a sparse network with
// no link), the clique tally, the complete-topology fast path and the
// bitmap kernel.
func deliveryMechanisms() []deliveryCase {
	var src bitrand.Source
	src.Reseed(0xd0a7)
	dc, _ := graph.DualClique(64, 3)
	complete := graph.UniformDual(graph.Clique(48))
	ring := graph.AugmentDual(&src, graph.RingChords(&src, 4096, 2048), 2048)
	global := func(s graph.NodeID) Spec { return Spec{Problem: GlobalBroadcast, Source: s} }
	return []deliveryCase{
		{"csr-walk", Config{Net: ring, Spec: global(9), Plan: PlanScalar, Link: staticPartialLink{}}},
		{"clique-tally", Config{Net: dc, Spec: global(3), UseCliqueCover: true, Link: staticAllLink{}}},
		{"complete-fast-path", Config{Net: complete, Spec: global(5), Link: staticAllLink{}}},
		{"bitmap-kernel", Config{Net: ring, Spec: global(9), Plan: PlanBitmap, Link: staticAllLink{}}},
		{"csr-walk-no-link", Config{Net: ring, Spec: global(9)}},
	}
}

// probeProc is a batchProc that counts the Step and Deliver calls it gets,
// and the messages it is handed while it already holds the rumor.
type probeProc struct {
	batchProc
	steps, calls, nils, awakeMsgs int
	// awakeAt is the first round the node holds the rumor: 0 for the
	// source, the round of its first message otherwise, -1 until then.
	awakeAt int
}

func (p *probeProc) Step(r int, rng *bitrand.Source) Action {
	p.steps++
	return p.batchProc.Step(r, rng)
}

func (p *probeProc) Deliver(r int, msg *Message) {
	p.calls++
	switch {
	case msg == nil:
		p.nils++
	case p.awakeAt < 0:
		p.awakeAt = r
	default:
		p.awakeMsgs++
	}
	p.batchProc.Deliver(r, msg)
}

// probeAlg builds probeProcs and keeps them for inspection. With mixed set,
// the process of node 1 is wrapped as a stepProc, so the execution is not
// all BulkSteppers.
type probeAlg struct {
	batchAlg
	mixed bool
	procs *[]*probeProc
}

func (a probeAlg) NewProcesses(net *graph.Dual, spec Spec, rng *bitrand.Source) []Process {
	procs := a.batchAlg.NewProcesses(net, spec, rng)
	*a.procs = (*a.procs)[:0]
	for u, p := range procs {
		pp := &probeProc{batchProc: *p.(*batchProc), awakeAt: -1}
		if pp.msg != nil {
			pp.awakeAt = 0
		}
		*a.procs = append(*a.procs, pp)
		procs[u] = pp
		if a.mixed && u == 1 {
			procs[u] = stepProc{pp}
		}
	}
	return procs
}

// TestBulkSteppersHearNoSilence pins the cost side of the BulkStepper
// contract on every delivery mechanism, under every plan the cases use:
// when every process is a BulkStepper, the engine draws the coins itself
// (no Step call), no process is ever handed Deliver(r, nil) — no
// collision, no silent listener, no transmitter — and no awake process is
// handed a message: the only Deliver a node gets is the one that wakes it.
// One process that is not a BulkStepper restores Step dispatch, silence and
// every message for the whole execution: every node then gets exactly one
// Deliver per round from the round it holds the rumor on.
func TestBulkSteppersHearNoSilence(t *testing.T) {
	const rounds = 120
	for _, tc := range deliveryMechanisms() {
		t.Run(tc.name, func(t *testing.T) {
			for _, mixed := range []bool{false, true} {
				var procs []*probeProc
				cfg := tc.cfg
				cfg.Seed, cfg.MaxRounds, cfg.IgnoreCompletion = 17, rounds, true
				cfg.Algorithm = probeAlg{batchAlg{p: 0.1}, mixed, &procs}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Deliveries == 0 {
					t.Fatal("no deliveries: the case exercises nothing")
				}
				steps, nils, awakeMsgs, wrong := 0, 0, 0, 0
				for _, p := range procs {
					steps += p.steps
					nils += p.nils
					awakeMsgs += p.awakeMsgs
					want := 0
					if p.awakeAt >= 0 {
						want = rounds - p.awakeAt
					}
					if p.calls != want {
						wrong++
					}
				}
				switch {
				case !mixed && steps != 0:
					t.Errorf("all BulkSteppers: %d Step calls, want 0", steps)
				case !mixed && nils != 0:
					t.Errorf("all BulkSteppers: %d Deliver(r, nil) calls, want 0", nils)
				case !mixed && awakeMsgs != 0:
					t.Errorf("all BulkSteppers: %d messages handed to awake nodes, want 0", awakeMsgs)
				case mixed && wrong != 0:
					t.Errorf("one Step process mixed in: %d of %d nodes did not get one Deliver per awake round", wrong, len(procs))
				case mixed && nils == 0:
					t.Error("one Step process mixed in: no silence handed out")
				case mixed && awakeMsgs == 0:
					t.Error("one Step process mixed in: no awake node received a message, so the case cannot show one withheld")
				}
			}
		})
	}
}
