package experiments

// The SCALE-n family: the same decay broadcast measured across four orders
// of network magnitude, n = 10³ → 10⁶. Every Figure 1 experiment keeps n in
// the hundreds so sweeps finish in seconds; these rows instead stress the
// engine's delivery paths at sizes far beyond them. The substrates
// deliberately straddle the auto-plan boundaries (internal/radio/bitmap.go):
// n = 10³ sits below the bitmap node floor; the dense n = 10⁴ circulant
// clears both the node and density gates, so its rounds run the push kernel
// over block-sparse rows, 64 listeners per word, at the cost of the
// transmitters' row blocks; and the sparse n = 10⁵ and 10⁶ ring-with-chords
// substrates fail the density gate, so their rounds take the CSR walk and
// cost the awake nodes' coins plus the transmitters' edges.
// The measured tables are plan-invariant — the differential equivalence
// tests pin that bit for bit — so the rows read as one scaling curve, not
// two code paths.
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

// scaleSubstrate is one network size of the family. Only trials run on the
// network, so net builds it on its first call and shares it with every
// later one: planning or merging SCALE-n builds none of the 10⁵/10⁶-node
// graphs, and an execution builds each once, on the first trial that runs
// on it, and drops it with the declaration.
type scaleSubstrate struct {
	n     int
	label string
	net   func() *graph.Dual
}

// buildScaleNets declares the family's substrates. Diameters are kept
// comparable across sizes (degree scales with n for the circulants; the
// chord expander is logarithmic by construction), so the scaling curve
// isolates the log n factors of the decay bound instead of conflating them
// with D growth.
func buildScaleNets(full bool) []scaleSubstrate {
	build := func(n, deg, extra int, seed uint64) func() *graph.Dual {
		return sync.OnceValue(func() *graph.Dual {
			src := bitrand.New(seed)
			var g *graph.Graph
			if deg > 0 {
				g = graph.Circulant(n, deg)
			} else {
				g = graph.RingChords(src, n, 2*n)
			}
			return graph.AugmentDual(src, g, extra)
		})
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
// adversary label with the link a trial runs against (nil: none), and an
// explicit round budget.
type scaleRow struct {
	alg  radio.Algorithm
	name string
	link func() any
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
	nets := buildScaleNets(!cfg.Quick)
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
			// The adversarial row stops at 10⁵. A committed fringe selection
			// adds its edges to the CSR walk at 10³ and 10⁵, and at 10⁴ the
			// bitmap plan builds rows for G plus the selected fringe once per
			// epoch, so every round runs the push kernel; at 10⁶ the point of
			// the row is the scale curve itself.
			fringe := sync.OnceValue(func() graph.EdgeSelector { return halfFringe(sub.net()) })
			rows = append(rows, scaleRow{core.DecayGlobal{}, "oblivious-static", func() any { return adversary.Static{Selector: fringe()} }, budget})
		}
		if sub.n == 1000 {
			// The sampling-oblivious adversary only runs at the smallest size:
			// presampling simulates its whole horizon per trial.
			rows = append(rows, scaleRow{core.DecayGlobal{}, "presample", func() any { return adversary.Presample{Horizon: 1024} }, budget})
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
				c := radio.Config{
					Net:       sub.net(),
					Algorithm: row.alg,
					Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
					Seed:      seed,
					MaxRounds: row.max,
				}
				if row.link != nil {
					c.Link = row.link()
				}
				return c
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
			"substrates straddle the delivery-plan boundaries (scalar at 10^3, 10^5 and 10^6, block-sparse bitmap at 10^4); tables are plan-invariant",
			verdict(res.Pass))
		return res
	})
}
