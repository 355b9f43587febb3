package adversary

import (
	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// Presample is the oblivious sampling adversary: the executable form of the
// Theorem 4.3 lower-bound mechanism (and of the oblivious attack on
// fixed-schedule algorithms like plain decay).
//
// Before the execution begins — which is when an oblivious link process must
// decide everything — it commits to the labels of a pre-simulation of the
// algorithm on the same network with *fresh, independent randomness*, under
// sparse dynamics (no unreliable edges). This realizes the isolated
// broadcast functions of Lemma 4.4: the sampled per-round transmitter
// counts Y¹_r. By the concentration argument
// of Lemma 4.5, the counts of the real execution Y²_r track the sampled
// ones: rounds sampled dense (count > C·ln n) will, with high probability,
// have ≥ 2 real transmitters, and rounds sampled sparse will have O(log n).
// The committed schedule smothers sampled-dense rounds with every unreliable
// edge and isolates sampled-sparse ones.
//
// Against algorithms whose schedule is fixed or state-predictable (plain
// decay, ALOHA, uncoordinated variants) the labels are accurate and progress
// across the unreliable cut stalls. Against the Section 4.1/4.3 algorithms
// the runtime-generated shared bits decorrelate the real schedule from any
// sample — exactly the paper's separation.
//
// Under an epoch schedule (Env.Epochs), the presimulations run under the
// same schedule as the real execution: the schedule is fixed before round 1
// and therefore public, so an oblivious adversary is entitled to it just as
// it is to a static topology. The sampled transmitter counts — and hence
// the committed dense/sparse labels — then reflect each epoch's topology,
// not just epoch 0's (a swap that connects a previously isolated region
// changes who can be informed, and with it every later count).
//
// Horizon caps the labelled rounds; beyond it the schedule stays sparse. On
// the bracelet network the natural horizon is the band length (the validity
// window of the isolated broadcast functions); on the dual clique it may be
// as long as the round budget.
//
// The labels are computed lazily. CommitSchedule fixes everything they
// depend on — the per-sample seeds, the threshold, the horizon, and the
// environment's network, epochs, problem and algorithm — and runs no
// presimulation. The first SelectorFor call below the horizon starts one
// radio.Execution per sample; when asked about a round past the labelled
// prefix, the schedule advances every sample just far enough to label it
// and keeps the samples suspended until the next such round. So each sample
// is set up once per host execution and steps no round twice, and an
// execution that stops after R rounds presimulates min(R, Horizon) rounds
// per sample. The samples are closed when the labels reach the horizon, or
// when the host execution ends (the schedule is a radio.ScheduleCloser). A
// presimulation runs with IgnoreCompletion to a budget that covers the
// horizon, so every label is the one an eager presimulation to the horizon
// would commit. The adversary stays oblivious: each label is the same
// function of commit-time information, only evaluated later, and nothing it
// computes reads the real execution.
type Presample struct {
	// C scales the dense threshold C·ln n (default 2).
	C float64
	// Floor is a lower bound on the dense threshold (default 8). The paper
	// hides this inside "for a sufficiently large constant c": a round must
	// only be smothered when ≥2 real transmitters are near-certain, because
	// a smothered round with exactly one transmitter hands the algorithm a
	// network-wide delivery. With E[|X|] below ~8, P(|X| = 1) is far from
	// negligible, so such rounds must be treated as sparse.
	Floor float64
	// Horizon is the number of labelled rounds (default min(MaxRounds, 8n));
	// rounds at or past it are sparse. It bounds what the schedule may
	// presimulate, not what it does: the samples advance only as far as the
	// execution consults.
	Horizon int
	// Samples is the number of independent presimulations (default 3). A
	// round is labeled dense only when every sample exceeds the threshold,
	// making borderline labels conservative.
	Samples int
}

var (
	_ radio.ObliviousLink  = Presample{}
	_ radio.ScheduleCloser = (*presampleSchedule)(nil)
)

// presampleSchedule is the committed schedule. dense labels the prefix of
// rounds presimulated so far; the rest is fixed at commit and determines
// every later label.
type presampleSchedule struct {
	// sim is the presimulation template: the environment's network (or
	// epoch schedule), problem and algorithm under sparse dynamics, with a
	// budget that covers the horizon and every rumor injection, recorded by
	// the schedule itself. Each sample sets its own Seed.
	sim       radio.Config
	seeds     []uint64
	threshold float64
	horizon   int
	dense     []bool
	// runs are the open sample executions, each advanced to len(dense)
	// rounds; nil before the first label and after Close. failed is set
	// when a sample failed to start, which leaves every round sparse.
	runs   []*radio.Execution
	failed bool
}

// SelectorFor implements radio.Schedule.
func (s *presampleSchedule) SelectorFor(round int) graph.EdgeSelector {
	if round >= s.horizon {
		return graph.SelectNone{}
	}
	if round >= len(s.dense) {
		s.label(round + 1)
	}
	if !s.failed && s.dense[round] {
		return graph.SelectAll{}
	}
	return graph.SelectNone{}
}

// label advances every sample to rounds rounds, starting the samples if none
// is open, and labels the new rounds: a round is dense when every sample's
// transmitter count exceeds the threshold (see Record). A sample that fails
// to start leaves the adversary without information: it degrades to the
// all-sparse schedule rather than aborting the host execution.
func (s *presampleSchedule) label(rounds int) {
	if s.failed {
		return
	}
	if s.runs == nil {
		// A reopened schedule (asked again after Close) re-runs its samples
		// from round 0; they record the counts they recorded before, so the
		// labels they AND over do not change.
		s.runs = make([]*radio.Execution, 0, len(s.seeds))
		for _, seed := range s.seeds {
			cfg := s.sim
			cfg.Seed = seed
			x, err := radio.Start(cfg)
			if err != nil {
				s.failed = true
				s.Close()
				return
			}
			s.runs = append(s.runs, x)
		}
	}
	for len(s.dense) < rounds {
		s.dense = append(s.dense, true)
	}
	for _, x := range s.runs {
		x.Advance(rounds)
	}
	if rounds == s.horizon {
		s.Close()
	}
}

// Record implements radio.Recorder for the samples: a round stays dense only
// while every sample's transmitter count exceeds the threshold.
func (s *presampleSchedule) Record(rec radio.RoundRecord) {
	if float64(len(rec.Transmitters)) <= s.threshold {
		s.dense[rec.Round] = false
	}
}

// Close implements radio.ScheduleCloser: it closes the open samples. The
// labels computed so far are kept.
func (s *presampleSchedule) Close() {
	for _, x := range s.runs {
		x.Close()
	}
	s.runs = nil
}

// CommitSchedule implements radio.ObliviousLink.
func (a Presample) CommitSchedule(env *radio.Env) radio.Schedule {
	c := a.C
	if c <= 0 {
		c = 2
	}
	horizon := a.Horizon
	if horizon <= 0 {
		horizon = 8 * env.Net.N()
	}
	if horizon > env.MaxRounds {
		horizon = env.MaxRounds
	}
	samples := a.Samples
	if samples <= 0 {
		samples = 3
	}
	threshold := c * bitrand.NaturalLog(env.Net.N())
	floor := a.Floor
	if floor <= 0 {
		floor = 8
	}
	if threshold < floor {
		threshold = floor
	}

	// Every scheduled rumor injection must fall inside the samples' budget
	// (the engine rejects a spec whose injections can never enter); rounds
	// past the horizon are never run.
	budget := horizon
	for _, inj := range env.Spec.Injections {
		budget = max(budget, inj.Round+1)
	}
	s := &presampleSchedule{
		sim: radio.Config{
			Algorithm:        env.Algorithm,
			Spec:             env.Spec,
			Link:             nil, // sparse dynamics: reliable edges only
			MaxRounds:        budget,
			IgnoreCompletion: true, // a sample runs on after it solves
			UseCliqueCover:   true,
		},
		seeds:     make([]uint64, samples),
		threshold: threshold,
		horizon:   horizon,
	}
	s.sim.Recorder = s
	// Fresh seeds from the adversary's own committed randomness: independent
	// of the real execution's coins, as obliviousness requires.
	for i := range s.seeds {
		s.seeds[i] = env.Rng.Split(0x5a3b, uint64(i)).Uint64()
	}
	// Pre-simulate under the execution's own topology schedule: per-epoch
	// transmitter counts, not epoch-0-only ones. Static runs keep the
	// static path.
	if len(env.Epochs) > 0 {
		s.sim.Epochs = env.Epochs
	} else {
		s.sim.Net = env.Net
	}
	return s
}
