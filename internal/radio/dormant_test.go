package radio

import (
	"reflect"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// hideDormancy wraps an algorithm so the engine sees every node as awake:
// its processes forward Process, TransmitProber and EpochAware to the
// wrapped ones, but not Dormant. Dormancy changes cost, never output, so a
// run of the wrapper must match a run of the algorithm itself bit for bit.
// The wrapper forwards no BulkStepper either: an awake bulk stepper must
// ignore messages (see BulkStepper), and a wrapped node that waits for one
// is awake only because its dormancy is hidden. The wrapper has a Name of
// its own and is no ProcessFactory, so it never shares a process arena with
// the algorithm it wraps.
type hideDormancy struct{ Algorithm }

func (h hideDormancy) Name() string { return h.Algorithm.Name() + "+awake" }

func (h hideDormancy) NewProcesses(net *graph.Dual, spec Spec, rng *bitrand.Source) []Process {
	procs := h.Algorithm.NewProcesses(net, spec, rng)
	for u, p := range procs {
		a := awakeProc{p}
		if tp, ok := p.(TransmitProber); ok {
			procs[u] = awakeProber{a, tp}
		} else {
			procs[u] = a
		}
	}
	return procs
}

type awakeProc struct{ p Process }

func (a awakeProc) Step(r int, rng *bitrand.Source) Action { return a.p.Step(r, rng) }
func (a awakeProc) Deliver(r int, msg *Message)            { a.p.Deliver(r, msg) }
func (a awakeProc) OnEpoch(epoch int, net *graph.Dual) {
	if ea, ok := a.p.(EpochAware); ok {
		ea.OnEpoch(epoch, net)
	}
}

type awakeProber struct {
	awakeProc
	tp TransmitProber
}

func (a awakeProber) TransmitProb(r int) float64 { return a.tp.TransmitProb(r) }

// strictProc is a batchProc that counts every call the engine promises
// never to make: a Step, a TransmitProb (the BulkStepper loop's coin), or a
// silent Deliver, while the node is dormant. A deaf node ignores messages
// too, so it stays dormant for good, and waking it anyway would show up as a
// Step or a coin.
type strictProc struct {
	*batchProc
	deaf   bool
	broken *int
}

func (s strictProc) Step(r int, rng *bitrand.Source) Action {
	if s.Dormant() {
		*s.broken++
	}
	return s.batchProc.Step(r, rng)
}

func (s strictProc) TransmitProb(r int) float64 {
	if s.Dormant() {
		*s.broken++
	}
	return s.batchProc.TransmitProb(r)
}

func (s strictProc) Deliver(r int, msg *Message) {
	if msg == nil && s.Dormant() {
		*s.broken++
	}
	if !s.deaf {
		s.batchProc.Deliver(r, msg)
	}
}

type strictAlg struct {
	batchAlg
	broken *int
}

func (a strictAlg) NewProcesses(net *graph.Dual, spec Spec, rng *bitrand.Source) []Process {
	procs := a.batchAlg.NewProcesses(net, spec, rng)
	for u, p := range procs {
		procs[u] = strictProc{p.(*batchProc), u%5 == 4, a.broken}
	}
	return procs
}

// TestDormantNodesSkipped pins the cost side of the Dormant contract on
// every delivery mechanism — the CSR walk, the clique tally, the
// complete-topology fast path and the bitmap kernel — under both the
// BulkStepper loop and, with BulkStepper hidden, the Step loop with silence
// handed out: no dormant node is stepped, asked for its coin or handed
// silence, a message that leaves a node dormant does not wake it, and the
// run still matches the one with dormancy hidden.
func TestDormantNodesSkipped(t *testing.T) {
	for _, tc := range deliveryMechanisms() {
		t.Run(tc.name, func(t *testing.T) {
			for _, bulk := range []bool{true, false} {
				broken := 0
				cfg := tc.cfg
				cfg.Seed, cfg.MaxRounds, cfg.IgnoreCompletion = 17, 120, true
				cfg.Algorithm = strictAlg{batchAlg{p: 0.3}, &broken}
				if !bulk {
					cfg.Algorithm = hideBulk{cfg.Algorithm}
				}
				got, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if broken != 0 {
					t.Errorf("bulk %v: %d Step, coin or silent Deliver calls reached dormant nodes", bulk, broken)
				}
				if got.Deliveries == 0 {
					t.Fatal("no deliveries: the case exercises nothing")
				}
				cfg.Algorithm = HideDormancy(cfg.Algorithm)
				want, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("bulk %v: dormancy changed the result: honoured %+v, hidden %+v", bulk, got, want)
				}
			}
		})
	}
}
