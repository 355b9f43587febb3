package radio

import (
	"repro/internal/bitrand"
	"repro/internal/graph"
)

// Env is the execution context handed to link processes. It contains exactly
// what every adversary class is entitled to before the execution begins: the
// network topology (including the full epoch schedule, which is fixed before
// round 1 and therefore public, exactly like the static topology), the
// problem instance, the algorithm description, and the adversary's own
// private randomness.
type Env struct {
	// Net is the base (epoch-0) topology. It never changes during the
	// execution, even when an epoch schedule swaps the live network — the
	// schedule itself is in Epochs, and adaptive link processes observe the
	// live topology through View.Net.
	Net       *graph.Dual
	Spec      Spec
	Algorithm Algorithm
	Rng       *bitrand.Source
	// MaxRounds is the engine's round budget, available so schedules can be
	// sized.
	MaxRounds int
	// Epochs is the execution's full topology schedule (nil for a static
	// run; Epochs[0].Net == Net otherwise). Like the network itself it is
	// part of the environment, not execution information: oblivious link
	// processes may commit against it — pre-simulating under the same churn
	// the real execution will see, or concentrating their schedule on the
	// rounds where the topology is degraded.
	Epochs []Epoch
}

// View is the execution information available to adaptive link processes at
// the start of a round. Oblivious processes never see a View.
//
// A View (and every slice it carries) is engine-owned scratch, valid only
// for the duration of the ChooseOnline/ChooseOffline call; link processes
// that retain any of it across rounds must copy.
type View struct {
	// Round is the current round index (0-based).
	Round int
	// EpochIdx is the index into Env.Epochs of the epoch the round runs
	// under (0 for static executions).
	EpochIdx int
	// Net is the live topology of the round: Env.Epochs[EpochIdx].Net under
	// a schedule, Env.Net otherwise. Adaptive adversaries reason over this
	// network, not the epoch-0 one.
	Net *graph.Dual
	// TransmitProbs[u] is the probability that node u transmits this round,
	// as determined by its state at the beginning of the round (before any
	// coin is flipped). Nodes whose process does not implement
	// TransmitProber report -1.
	TransmitProbs []float64
	// LastTransmitters is the realized transmitter set of the previous
	// round (nil in round 0). Part of the execution history.
	LastTransmitters []graph.NodeID
	// Informed is the number of problem-relevant deliveries so far (informed
	// nodes for global broadcast, satisfied receivers for local broadcast).
	Informed int
}

// SumTransmitProbs returns Σ_u TransmitProbs[u] over nodes with known
// probabilities: the E[|X| | S] quantity of Theorem 3.1.
func (v *View) SumTransmitProbs() float64 {
	total := 0.0
	for _, p := range v.TransmitProbs {
		if p >= 0 {
			total += p
		}
	}
	return total
}

// Schedule is a committed oblivious link schedule: a pure function of the
// round number fixed before the execution begins.
//
// A schedule may label lazily: it may compute a round's selection only when
// SelectorFor is first asked about it, and keep what it computed, as long as
// SelectorFor(r) depends only on r and on information fixed at commit — never
// on when, how often or in what order it is asked. The engine calls
// SelectorFor from one goroutine, once per round in ascending order. A
// schedule that holds resources while it labels (a presimulation's open
// Execution) implements ScheduleCloser to learn when the execution ends.
type Schedule interface {
	// SelectorFor returns the E'\E selection for the given round.
	SelectorFor(round int) graph.EdgeSelector
}

// ScheduleCloser is a Schedule that holds resources while it labels. The
// engine calls Close once when the execution that committed the schedule
// ends — when Run returns, or when the Execution is finished or closed — and
// asks for no selection after it. Close must not change any selection the
// schedule would return: a schedule asked again after Close (outside an
// engine) still answers as committed.
type ScheduleCloser interface {
	Schedule
	Close()
}

// ObliviousLink is a link process that must commit its entire behavior
// before round 1. CommitSchedule is invoked exactly once; the returned
// Schedule receives no execution information, enforcing obliviousness by
// construction. A Schedule may itself presimulate the public algorithm
// through its own Executions (see Execution), suspended between the rounds
// it is asked about.
type ObliviousLink interface {
	CommitSchedule(env *Env) Schedule
}

// OnlineAdaptiveLink chooses each round's links from the execution history
// and the state-determined transmit probabilities, but not the coins.
type OnlineAdaptiveLink interface {
	ChooseOnline(env *Env, view *View) graph.EdgeSelector
}

// OfflineAdaptiveLink additionally sees the realized transmitter set of the
// current round before fixing the links — the strongest classical adversary.
type OfflineAdaptiveLink interface {
	ChooseOffline(env *Env, view *View, transmitters []graph.NodeID) graph.EdgeSelector
}

// ScheduleFunc adapts a function to the Schedule interface.
type ScheduleFunc func(round int) graph.EdgeSelector

// SelectorFor implements Schedule.
func (f ScheduleFunc) SelectorFor(round int) graph.EdgeSelector { return f(round) }

// StaticSchedule replays the same selector every round.
type StaticSchedule struct {
	Selector graph.EdgeSelector
}

// SelectorFor implements Schedule.
func (s StaticSchedule) SelectorFor(int) graph.EdgeSelector { return s.Selector }
