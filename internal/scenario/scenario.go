// Package scenario describes epoch-driven workloads for the dual graph
// engine: a timeline of topology revisions (node churn, edge churn) plus
// staggered rumor injections for multi-message contention, generated
// deterministically from a seed.
//
// A Scenario is pure description — churn op lists per epoch, injection
// schedule — decoupled from any execution. Compile materializes it into the
// engine's inputs: one immutable graph revision per epoch (built through
// graph.Revision, so every zero-copy CSR contract holds per epoch) and a
// radio epoch schedule. Experiments compile once per sweep point and share
// the compiled revisions across every trial, which keeps the per-trial
// allocation profile identical to the static path (covers memoize per
// revision, the process arena keys off the epoch-0 network).
package scenario

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// Epoch is one churn step of a scenario: at round Start, Ops are applied to
// the previous epoch's topology.
type Epoch struct {
	// Start is the first round under the churned topology; must be positive
	// and strictly increasing across the scenario's epochs.
	Start int
	// Ops is the deterministic churn op list, applied in order.
	Ops []graph.ChurnOp
}

// Scenario is a deterministic timeline over a base network: topology churn
// epochs plus rumor injections. The zero value of Epochs/Injections means a
// static single-topology execution.
type Scenario struct {
	// Base is the epoch-0 network.
	Base *graph.Dual
	// Epochs are the churn steps, in increasing Start order.
	Epochs []Epoch
	// Injections is the multi-message contention schedule, handed to
	// radio.Spec.Injections for gossip workloads.
	Injections []radio.Injection
	// Degradation is the per-epoch degradation metadata, aligned with the
	// compiled schedule (entry 0 is the base epoch and always zero). Filled
	// by Generate; for hand-built scenarios, DegradationOf computes it from
	// a compiled schedule. Churn-window adversaries consume this to know
	// when the topology is worth attacking.
	Degradation []Degradation

	// generated is what Generate built while it drew the epochs, so Compile
	// applies no op a second time; nil for a scenario Generate did not
	// return.
	generated *generated
}

// generated holds the revisions Generate built, as a compiled schedule
// (sched[0] is the base), with a private copy of the epochs they were built
// from. Compile hands the schedule back only while the scenario's Base and
// Epochs still equal these, so a scenario edited after Generate compiles
// from its ops.
type generated struct {
	epochs []Epoch
	sched  []radio.Epoch
}

// matches reports whether s still has the base and epochs g was built from.
func (g *generated) matches(s Scenario) bool {
	return g.sched[0].Net == s.Base && slices.EqualFunc(g.epochs, s.Epochs, func(a, b Epoch) bool {
		return a.Start == b.Start && slices.Equal(a.Ops, b.Ops)
	})
}

// Degradation quantifies how far one epoch's topology has drifted from the
// base: the attack surface a churn-aware adversary sees.
type Degradation struct {
	// Departed counts nodes offline during the epoch: nodes with at least
	// one base G' link but none in the epoch's G'.
	Departed int
	// Demoted counts base reliable G edges that are no longer reliable in
	// the epoch (demoted to E'\E or dropped outright) between endpoints
	// that are both still online. These are exactly the formerly-trusted
	// links whose fate the link process now controls.
	Demoted int
	// Gained counts unreliable links present in the epoch's G' that the
	// base G' never had: fresh adversary-controlled pairs (storms, fringe
	// drift). Like demotions they enlarge the attack surface, so they count
	// as degradation even though no reliable link was lost.
	Gained int
}

// Degraded reports whether the epoch's topology is degraded at all.
func (d Degradation) Degraded() bool { return d.Departed > 0 || d.Demoted > 0 || d.Gained > 0 }

// degMemo caches DegradationBetween results per (base, cur) revision pair.
// Duals are immutable once built, so a pair's degradation never changes; a
// compiled schedule has a handful of revisions that churn-window adversaries
// re-compare every round of every trial, which made the derived-windows path
// ~8x slower than the precomputed mask (BENCH_pr5). The memo retains the
// keyed duals for the process lifetime — the same trade the per-graph
// clique-cover and neighbor-mask memos make. A typed map under RWMutex keeps
// the steady-state hit allocation-free (a sync.Map would box the key on
// every Load).
var degMemo struct {
	sync.RWMutex
	m map[[2]*graph.Dual]Degradation
}

// DegradationBetween compares one epoch's topology against the base,
// memoized per (base, cur) pair. The first comparison walks zero-copy CSR
// views at O(|E|) cost; repeated calls (a churn-window adversary without
// precomputed windows makes one per round) are an allocation-free map hit.
func DegradationBetween(base, cur *graph.Dual) Degradation {
	key := [2]*graph.Dual{base, cur}
	degMemo.RLock()
	out, ok := degMemo.m[key]
	degMemo.RUnlock()
	if ok {
		return out
	}
	out = degradationBetween(base, cur)
	degMemo.Lock()
	if degMemo.m == nil {
		degMemo.m = make(map[[2]*graph.Dual]Degradation)
	}
	degMemo.m[key] = out
	degMemo.Unlock()
	return out
}

func degradationBetween(base, cur *graph.Dual) Degradation {
	var out Degradation
	departed := func(u graph.NodeID) bool {
		return base.GPrime().Degree(u) > 0 && cur.GPrime().Degree(u) == 0
	}
	for u := 0; u < base.N(); u++ {
		if departed(u) {
			out.Departed++
		}
	}
	base.G().ForEachEdge(func(u, v graph.NodeID) {
		if !departed(u) && !departed(v) && !cur.G().HasEdge(u, v) {
			out.Demoted++
		}
	})
	cur.GPrime().ForEachEdge(func(u, v graph.NodeID) {
		if !base.GPrime().HasEdge(u, v) {
			out.Gained++
		}
	})
	return out
}

// DegradationOf computes the per-epoch degradation metadata of a compiled
// schedule (epoch 0 is the base). Generate fills Scenario.Degradation with
// exactly this.
func DegradationOf(epochs []radio.Epoch) []Degradation {
	if len(epochs) == 0 {
		return nil
	}
	out := make([]Degradation, len(epochs))
	for i := 1; i < len(epochs); i++ {
		out[i] = DegradationBetween(epochs[0].Net, epochs[i].Net)
	}
	return out
}

// DegradedWindows flattens the scenario's degradation metadata into the
// per-epoch window mask a churn-window adversary consumes (true = the epoch
// is degraded).
func (s Scenario) DegradedWindows() []bool {
	wins := make([]bool, len(s.Degradation))
	for i, d := range s.Degradation {
		wins[i] = d.Degraded()
	}
	return wins
}

// Compile materializes the scenario into a radio epoch schedule: revision 0
// is the base, and each scenario epoch derives the next immutable revision
// through graph.Revision. A scenario as Generate returned it hands back the
// revisions Generate built. The result is safe to share across trials.
func (s Scenario) Compile() ([]radio.Epoch, error) {
	if s.Base == nil {
		return nil, fmt.Errorf("scenario: nil base network")
	}
	if g := s.generated; g != nil && g.matches(s) {
		return slices.Clone(g.sched), nil
	}
	epochs := make([]radio.Epoch, 0, len(s.Epochs)+1)
	epochs = append(epochs, radio.Epoch{Start: 0, Net: s.Base})
	rv := graph.NewRevision(s.Base)
	last := 0
	for i, ep := range s.Epochs {
		if ep.Start <= last {
			return nil, fmt.Errorf("scenario: epoch %d starts at round %d, not after %d", i, ep.Start, last)
		}
		last = ep.Start
		var err error
		if rv, err = rv.Apply(ep.Ops); err != nil {
			return nil, fmt.Errorf("scenario: epoch %d: %w", i, err)
		}
		epochs = append(epochs, radio.Epoch{Start: ep.Start, Net: rv.Dual()})
	}
	return epochs, nil
}

// GenConfig parameterizes deterministic scenario generation.
type GenConfig struct {
	// Epochs is the number of churn epochs (beyond the initial topology). A
	// final healing epoch is appended after them, so the compiled schedule
	// has Epochs+2 topologies.
	Epochs int
	// EpochLen is the number of rounds between epoch starts; the first churn
	// epoch begins at round EpochLen.
	EpochLen int
	// Leaves is the number of nodes taken offline per churn epoch; each
	// rejoins at the next epoch (or in the healing epoch).
	Leaves int
	// Demotions is the number of reliable G edges demoted to E'\E per churn
	// epoch; each is restored at the next epoch, so reliability dips are
	// transient, mirroring the leave/rejoin pattern.
	Demotions int
	// ExtraFlips is the number of unreliable E'\E edges removed and the
	// number of fresh unreliable pairs added per churn epoch. These persist:
	// the adversary-controlled fringe drifts over the scenario's lifetime.
	ExtraFlips int
	// Storms is the number of transient unreliable links flaring up per
	// churn epoch: fresh E'\E pairs added at the epoch start and removed
	// one epoch later (the healing epoch clears the last batch), mirroring
	// the leave/demotion pattern. A storm epoch hands the adversary a
	// temporarily enlarged attack surface — on a base with G' = G it is the
	// dual graph model's G-vs-G' gap itself, opening for one epoch.
	Storms int
	// Protected nodes never leave (problem sources and injection origins, so
	// a scheduled origin is online when its rumor activates).
	Protected []graph.NodeID
	// InjectSources, when non-empty, schedules one extra rumor per listed
	// node, staggered across epoch starts: rumor j activates when churn
	// epoch (j mod max(Epochs,1))+1 begins. Sources here are implicitly
	// protected.
	InjectSources []graph.NodeID
	// MaxRounds, when positive, is the round budget the scenario will run
	// under. Generate fails if the staggered injection schedule would place
	// a rumor at or beyond it — the engine rejects such specs, because the
	// rumor would count toward completion while never entering the system.
	MaxRounds int
}

// Validate checks the config against an n-node base network without
// generating anything: epoch geometry, the storm healing budget, and node
// references. It is the static half of Generate's contract, exposed so a
// serialized GenConfig (a service submission, a replayed spec file) can be
// rejected with a precise error before any graph is built.
func (cfg GenConfig) Validate(n int) error {
	if cfg.Epochs < 0 || cfg.EpochLen <= 0 {
		return fmt.Errorf("scenario: need EpochLen > 0 (got %d) and Epochs >= 0 (got %d)", cfg.EpochLen, cfg.Epochs)
	}
	// Storms are documented as transient: each batch clears one epoch later,
	// with the healing epoch (start (Epochs+1)*EpochLen) clearing the last.
	// If the round budget ends before the healing epoch begins, the final
	// epoch's storm fringe silently persists to the end of the run — the
	// caller gets a permanently degraded topology it believes is transient.
	// Refuse the config instead of dropping the contract.
	if cfg.Storms > 0 && cfg.MaxRounds > 0 && cfg.Epochs > 0 && (cfg.Epochs+1)*cfg.EpochLen >= cfg.MaxRounds {
		return fmt.Errorf("%w: scenario: healing epoch starts at round %d, at or beyond the %d-round budget — the final storm batch would never clear",
			radio.ErrBadConfig, (cfg.Epochs+1)*cfg.EpochLen, cfg.MaxRounds)
	}
	for _, u := range cfg.Protected {
		if u < 0 || u >= n {
			return fmt.Errorf("scenario: protected node %d out of range [0,%d)", u, n)
		}
	}
	for _, u := range cfg.InjectSources {
		if u < 0 || u >= n {
			return fmt.Errorf("scenario: injection source %d out of range [0,%d)", u, n)
		}
	}
	return nil
}

// Generate draws a deterministic scenario from the source: the same base,
// source state, and config always produce the same timeline. Node and edge
// choices are sampled from the evolving topology itself (a node that left
// cannot lose an edge it no longer has), so generation walks the revision
// chain as it emits ops.
func Generate(base *graph.Dual, src *bitrand.Source, cfg GenConfig) (Scenario, error) {
	if base == nil {
		return Scenario{}, fmt.Errorf("scenario: nil base network")
	}
	n := base.N()
	if err := cfg.Validate(n); err != nil {
		return Scenario{}, err
	}
	protected := make([]bool, n)
	for _, u := range cfg.Protected {
		protected[u] = true
	}
	for _, u := range cfg.InjectSources {
		protected[u] = true
	}

	sc := Scenario{Base: base, Degradation: []Degradation{{}}}
	sched := []radio.Epoch{{Start: 0, Net: base}}
	rv := graph.NewRevision(base)
	var pendingJoins []graph.NodeID     // nodes that left last epoch
	var pendingRestores []graph.ChurnOp // demoted G edges to re-add
	var pendingClears []graph.ChurnOp   // storm E'\E edges to remove

	for e := 1; e <= cfg.Epochs; e++ {
		var ops []graph.ChurnOp
		// Heal last epoch's churn first, so departures, demotions, and
		// storms last exactly one epoch.
		for _, u := range pendingJoins {
			ops = append(ops, graph.ChurnOp{Kind: graph.ChurnJoin, U: u})
		}
		pendingJoins = nil
		ops = append(ops, pendingRestores...)
		pendingRestores = nil
		ops = append(ops, pendingClears...)
		pendingClears = nil

		d := rv.Dual()
		// Node churn: sample distinct present, unprotected nodes.
		for picked, attempts := 0, 0; picked < cfg.Leaves && attempts < 16*n; attempts++ {
			u := src.Intn(n)
			if protected[u] || rv.Departed(u) || containsNode(pendingJoins, u) {
				continue
			}
			ops = append(ops, graph.ChurnOp{Kind: graph.ChurnLeave, U: u})
			pendingJoins = append(pendingJoins, u)
			picked++
		}
		// Reliability churn: demote sampled G edges for one epoch.
		gEdges := collectEdges(d.G(), nil)
		for i := 0; i < cfg.Demotions && len(gEdges) > 0; i++ {
			j := src.Intn(len(gEdges))
			u, v := gEdges[j][0], gEdges[j][1]
			gEdges[j] = gEdges[len(gEdges)-1]
			gEdges = gEdges[:len(gEdges)-1]
			ops = append(ops, graph.ChurnOp{Kind: graph.ChurnRemoveEdge, U: u, V: v})
			pendingRestores = append(pendingRestores, graph.ChurnOp{Kind: graph.ChurnAddEdge, U: u, V: v})
		}
		// Fringe drift: remove sampled unreliable edges, add fresh pairs.
		// Base reliable edges are off limits even while they sit in E'\E (a
		// demotion from the previous epoch awaiting restore): removing one
		// would delete the reliable link outright and the healing epoch
		// could never restore the base graph.
		exEdges := collectExtra(d, func(u, v graph.NodeID) bool {
			return !base.G().HasEdge(u, v)
		})
		for i := 0; i < cfg.ExtraFlips && len(exEdges) > 0; i++ {
			j := src.Intn(len(exEdges))
			u, v := exEdges[j][0], exEdges[j][1]
			exEdges[j] = exEdges[len(exEdges)-1]
			exEdges = exEdges[:len(exEdges)-1]
			ops = append(ops, graph.ChurnOp{Kind: graph.ChurnRemoveExtraEdge, U: u, V: v})
		}
		added := map[[2]graph.NodeID]bool{}
		for i, attempts := 0, 0; i < cfg.ExtraFlips && attempts < 16*n; attempts++ {
			u, v := src.Intn(n), src.Intn(n)
			if u > v {
				u, v = v, u
			}
			// Skip pairs that would be set no-ops (already drawn this epoch,
			// already in G') and pairs Apply would ignore (an endpoint is
			// departing this epoch, or still departed from an earlier one),
			// so the epoch really gains ExtraFlips fresh unreliable edges.
			if u == v || added[[2]graph.NodeID{u, v}] || d.GPrime().HasEdge(u, v) ||
				containsNode(pendingJoins, u) || containsNode(pendingJoins, v) ||
				rv.Departed(u) || rv.Departed(v) {
				continue
			}
			added[[2]graph.NodeID{u, v}] = true
			ops = append(ops, graph.ChurnOp{Kind: graph.ChurnAddExtraEdge, U: u, V: v})
			i++
		}
		// Interference storms: transient unreliable links, cleared one epoch
		// later. The same fresh-pair sampling as fringe drift, but with the
		// removal scheduled — a storm epoch's attack surface collapses back
		// to the base when it passes.
		for i, attempts := 0, 0; i < cfg.Storms && attempts < 64*n; attempts++ {
			u, v := src.Intn(n), src.Intn(n)
			if u > v {
				u, v = v, u
			}
			if u == v || added[[2]graph.NodeID{u, v}] || d.GPrime().HasEdge(u, v) ||
				containsNode(pendingJoins, u) || containsNode(pendingJoins, v) ||
				rv.Departed(u) || rv.Departed(v) {
				continue
			}
			added[[2]graph.NodeID{u, v}] = true
			ops = append(ops, graph.ChurnOp{Kind: graph.ChurnAddExtraEdge, U: u, V: v})
			pendingClears = append(pendingClears, graph.ChurnOp{Kind: graph.ChurnRemoveExtraEdge, U: u, V: v})
			i++
		}

		next, err := rv.Apply(ops)
		if err != nil {
			return Scenario{}, fmt.Errorf("scenario: generating epoch %d: %w", e, err)
		}
		rv = next
		sc.Epochs = append(sc.Epochs, Epoch{Start: e * cfg.EpochLen, Ops: ops})
		sched = append(sched, radio.Epoch{Start: e * cfg.EpochLen, Net: rv.Dual()})
		sc.Degradation = append(sc.Degradation, DegradationBetween(base, rv.Dual()))
	}

	// Healing epoch: everyone rejoins, every outstanding demotion is
	// restored, and the last storm clears, so the problem stays solvable
	// after the churn window.
	if cfg.Epochs > 0 {
		var heal []graph.ChurnOp
		for _, u := range pendingJoins {
			heal = append(heal, graph.ChurnOp{Kind: graph.ChurnJoin, U: u})
		}
		heal = append(heal, pendingRestores...)
		heal = append(heal, pendingClears...)
		next, err := rv.Apply(heal)
		if err != nil {
			return Scenario{}, fmt.Errorf("scenario: generating healing epoch: %w", err)
		}
		rv = next
		sc.Epochs = append(sc.Epochs, Epoch{Start: (cfg.Epochs + 1) * cfg.EpochLen, Ops: heal})
		sched = append(sched, radio.Epoch{Start: (cfg.Epochs + 1) * cfg.EpochLen, Net: rv.Dual()})
		sc.Degradation = append(sc.Degradation, DegradationBetween(base, rv.Dual()))
	}
	sc.generated = &generated{epochs: cloneEpochs(sc.Epochs), sched: sched}

	// Staggered injections: rumor j enters when churn epoch (j mod E)+1
	// begins, spreading contention across the timeline.
	cycle := cfg.Epochs
	if cycle < 1 {
		cycle = 1
	}
	for j, u := range cfg.InjectSources {
		round := (1 + j%cycle) * cfg.EpochLen
		if cfg.MaxRounds > 0 && round >= cfg.MaxRounds {
			return Scenario{}, fmt.Errorf("scenario: injection %d (node %d) lands at round %d, at or beyond the %d-round budget",
				j, u, round, cfg.MaxRounds)
		}
		sc.Injections = append(sc.Injections, radio.Injection{
			Source: u,
			Round:  round,
		})
	}
	return sc, nil
}

// cloneEpochs copies epochs and their op lists.
func cloneEpochs(epochs []Epoch) []Epoch {
	out := make([]Epoch, len(epochs))
	for i, ep := range epochs {
		out[i] = Epoch{Start: ep.Start, Ops: slices.Clone(ep.Ops)}
	}
	return out
}

func containsNode(xs []graph.NodeID, u graph.NodeID) bool {
	for _, x := range xs {
		if x == u {
			return true
		}
	}
	return false
}

// collectEdges lists a graph's undirected edges, optionally filtered.
func collectEdges(g *graph.Graph, keep func(u, v graph.NodeID) bool) [][2]graph.NodeID {
	out := make([][2]graph.NodeID, 0, g.NumEdges())
	g.ForEachEdge(func(u, v graph.NodeID) {
		if keep == nil || keep(u, v) {
			out = append(out, [2]graph.NodeID{u, v})
		}
	})
	return out
}

// collectExtra lists a dual's E'\E edges with u < v, optionally filtered.
func collectExtra(d *graph.Dual, keep func(u, v graph.NodeID) bool) [][2]graph.NodeID {
	out := make([][2]graph.NodeID, 0, d.NumExtraEdges())
	for u := 0; u < d.N(); u++ {
		for _, v := range d.ExtraNeighbors(u) {
			if u < v && (keep == nil || keep(u, v)) {
				out = append(out, [2]graph.NodeID{u, v})
			}
		}
	}
	return out
}
