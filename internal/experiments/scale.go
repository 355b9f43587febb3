package experiments

// The SCALE-n family: the same decay broadcast measured across four orders
// of network magnitude, n = 10³ → 10⁶. Every Figure 1 experiment keeps n in
// the hundreds so sweeps finish in seconds; these rows instead stress the
// engine's delivery paths at the sizes the word-parallel plans were built
// for. The substrates deliberately straddle the auto-plan boundaries
// (internal/radio/bitmap.go): n = 10³ sits below the bitmap node floor
// (scalar CSR walk), the dense n = 10⁴ circulant clears both the node and
// density gates, and the sparse n = 10⁵ and 10⁶ ring-with-chords substrates
// sit above the density gate's node cap with mask footprints far under the
// byte budget. Both bitmap regimes run block-sparse rounds, 64 candidate
// senders per word. The measured tables are plan-invariant — the
// differential equivalence tests pin that bit for bit — so the rows read as
// one scaling curve, not two code paths.
//
// All large configurations state MaxRounds explicitly: above the engine's
// default-budget threshold (4096 nodes) the 64·n² fallback is refused as a
// misconfiguration rather than silently becoming a 10¹¹-round budget.

import (
	"fmt"
	"sync"

	"repro/internal/adversary"
	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "SCALE-n",
		Title:      "Scale: decay broadcast from n = 10^3 to 10^6",
		PaperClaim: "decay completes in O(D log n + log^2 n) rounds at every scale; the O(n·D) round-robin foil is left behind by orders of magnitude",
		Run:        runScale,
	})
}

// scaleSubstrate is one network size of the family, with the G' fringe the
// oblivious rows select from.
type scaleSubstrate struct {
	n     int
	label string
	net   *graph.Dual
}

// scaleNetsMemo caches the built substrates per scale for the process
// lifetime. Substrates are immutable and deterministic in their seeds, and a
// service-driven run declares each experiment once per lifecycle call —
// submit-time planning, execute, and merge — so without the memo each
// declaration would rebuild the 10⁵/10⁶-node graphs from scratch.
var scaleNetsMemo struct {
	sync.Mutex
	nets map[bool][]scaleSubstrate
}

func scaleNets(full bool) []scaleSubstrate {
	scaleNetsMemo.Lock()
	defer scaleNetsMemo.Unlock()
	if nets, ok := scaleNetsMemo.nets[full]; ok {
		return nets
	}
	nets := buildScaleNets(full)
	if scaleNetsMemo.nets == nil {
		scaleNetsMemo.nets = make(map[bool][]scaleSubstrate, 2)
	}
	scaleNetsMemo.nets[full] = nets
	return nets
}

// buildScaleNets builds the family's substrates. Diameters are kept
// comparable across sizes (degree scales with n for the circulants; the
// chord expander is logarithmic by construction), so the scaling curve
// isolates the log n factors of the decay bound instead of conflating them
// with D growth.
func buildScaleNets(full bool) []scaleSubstrate {
	build := func(n, deg, extra int, seed uint64) *graph.Dual {
		src := bitrand.New(seed)
		var g *graph.Graph
		if deg > 0 {
			g = graph.Circulant(n, deg)
		} else {
			g = graph.RingChords(src, n, 2*n)
		}
		return graph.AugmentDual(src, g, extra)
	}
	nets := []scaleSubstrate{
		{1000, "circulant d=64", build(1000, 64, 2000, 0x5ca1e03)},
		{10000, "circulant d=512", build(10000, 512, 20000, 0x5ca1e04)},
	}
	if full {
		nets = append(nets, scaleSubstrate{100000, "ring+chords", build(100000, 0, 100000, 0x5ca1e05)})
		nets = append(nets, scaleSubstrate{1000000, "ring+chords", build(1000000, 0, 1000000, 0x5ca1e06)})
	}
	return nets
}

// scaleTrials caps the per-point trial count at the million-node size. The
// ramp before the informed set takes off is cheap, since rounds cost only
// the awake nodes, but once most of the 10⁶ nodes are informed every round
// steps them all and walks their rows for hundreds of rounds, so the full
// 15-seed default would dominate the whole suite's wall clock for a point
// whose median is already stable at a third of that.
func scaleTrials(trials, n int) int {
	if n >= 1000000 && trials > 5 {
		return 5
	}
	return trials
}

// halfFringe selects every other E'\E edge of the dual: the committed
// oblivious selection of the SCALE adversary rows.
func halfFringe(d *graph.Dual) graph.EdgeSelector {
	var edges []graph.EdgeKey
	keep := true
	for u := 0; u < d.N(); u++ {
		for _, v := range d.ExtraNeighbors(u) {
			if v <= u {
				continue
			}
			if keep {
				edges = append(edges, graph.EdgeKey{U: u, V: v})
			}
			keep = !keep
		}
	}
	return graph.NewSelectSet(edges)
}

// scaleRow is one measured configuration of a substrate: an algorithm, an
// adversary label, and an explicit round budget.
type scaleRow struct {
	alg  radio.Algorithm
	name string
	link any
	max  int
}

func runScale(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "SCALE-n",
		Title:      "Decay broadcast across four orders of magnitude",
		PaperClaim: "round counts stay polylogarithmic-per-hop as n grows 10x-1000x; round robin pays Θ(n) per hop",
		Table:      stats.NewTable("n", "substrate", "algorithm", "adversary", "median", "p90", "solved"),
	}
	trials := cfg.trials()
	nets := scaleNets(!cfg.Quick)
	res.Pass = true

	var ns, decayMed []float64
	var rrNs, rrMeds []float64
	var decaySmall, decayAtRR float64
	sw := newSweep(cfg)
	for _, sub := range nets {
		sub := sub
		// Decay needs a few phases per hop; 500·log n covers every substrate
		// here with an order of magnitude of slack while staying an explicit,
		// finite budget (the engine refuses a default budget above 4096 nodes).
		budget := 500 * bitrand.LogN(sub.n)
		rows := []scaleRow{
			{core.DecayGlobal{}, "none", nil, budget},
		}
		if sub.n < 1000000 {
			// The adversarial row stops at 10⁵: a committed fringe selection
			// forces the engine onto its partial-selector fallback, and at 10⁶
			// the point of the row is the block-sparse fast path itself.
			rows = append(rows, scaleRow{core.DecayGlobal{}, "oblivious-static", adversary.Static{Selector: halfFringe(sub.net)}, budget})
		}
		if sub.n == 1000 {
			// The sampling-oblivious adversary only runs at the smallest size:
			// presampling simulates its whole horizon per trial.
			rows = append(rows, scaleRow{core.DecayGlobal{}, "presample", adversary.Presample{Horizon: 1024}, budget})
		}
		if sub.n <= 10000 {
			// The Θ(n) foil runs on both circulants so its own scaling (~n
			// rounds regardless of diameter) is measured, not assumed; at 10⁵
			// its rounds are pure wall-clock waste.
			rows = append(rows, scaleRow{core.RoundRobin{}, "none", nil, 4 * sub.n})
		}
		for _, row := range rows {
			row := row
			sw.point(scaleTrials(trials, sub.n), func(seed uint64) radio.Config {
				return radio.Config{
					Net:       sub.net,
					Algorithm: row.alg,
					Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
					Link:      row.link,
					Seed:      seed,
					MaxRounds: row.max,
				}
			}, func(out trialOutcome) {
				if out.Solved < out.Trials {
					res.Pass = false
				}
				res.Table.AddRow(sub.n, sub.label, row.alg.Name(), row.name,
					out.MedianRounds, out.P90, fmt.Sprintf("%d/%d", out.Solved, out.Trials))
				switch {
				case row.alg.Name() == "round-robin":
					rrNs = append(rrNs, float64(sub.n))
					rrMeds = append(rrMeds, out.MedianRounds)
				case row.name == "none":
					ns = append(ns, float64(sub.n))
					decayMed = append(decayMed, out.MedianRounds)
					if sub.n == 1000 {
						decaySmall = out.MedianRounds
					}
					if sub.n == 10000 {
						decayAtRR = out.MedianRounds
					}
				}
			})
		}
	}
	return sw.finish(func() *Result {
		res.addSeries("decay median vs n (no adversary)", ns, decayMed)
		res.addSeries("round-robin median vs n", rrNs, rrMeds)

		// Shape checks. The foil really is Θ(n): round robin takes at least n/2
		// rounds at every size (a node cannot relay before its own slot comes
		// up). Separation: at n = 10⁴ it pays a wide multiple of decay.
		// Sublinearity: growing n by 10x (100x in full mode) must grow the decay
		// median far slower than linearly — at most half the size ratio is
		// already generous for a polylog-per-hop bound over comparable diameters.
		largest := decayMed[len(decayMed)-1]
		for i, m := range rrMeds {
			if m < rrNs[i]/2 {
				res.Pass = false
			}
		}
		rrLarge := rrMeds[len(rrMeds)-1]
		if rrLarge < 5*decayAtRR {
			res.Pass = false
		}
		sizeRatio := ns[len(ns)-1] / ns[0]
		if largest > decaySmall*sizeRatio/2 {
			res.Pass = false
		}
		res.Notes = append(res.Notes,
			fmt.Sprintf("decay median grows %.1fx while n grows %.0fx; round robin pays %.0fx decay at n=10000",
				largest/decaySmall, sizeRatio, rrLarge/decayAtRR),
			"substrates straddle the delivery-plan boundaries (scalar at 10^3, block-sparse bitmap at 10^4, 10^5 and 10^6); tables are plan-invariant",
			verdict(res.Pass))
		return res
	})
}
