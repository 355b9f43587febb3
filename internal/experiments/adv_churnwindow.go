package experiments

// The ADV-churnwindow family: adversaries against the churn window. The
// scenario opens transient interference storms over a network whose base has
// no unreliable fringe at all (G' = G), so outside the degraded epochs every
// link process is provably powerless — any selector chooses from an empty
// E'\E. The family then races, at shared seeds, the static class against a
// churn-blind adversary (the same window-gated machinery pointed at the
// healthy epochs) and against the churn-exploiting ChurnWindow classes that
// smother only while the topology is degraded. The churn-blind rows come out
// byte-identical to the no-adversary rows — mistimed smothering selects from
// an empty set — while the aligned rows strictly slow completion: the
// dual graph model's G-vs-G' gap is the churn window itself.

import (
	"fmt"
	"sync"

	"repro/internal/adversary"
	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "ADV-churnwindow",
		Title:      "Adversaries vs churn windows (two reliable cliques, storm epochs)",
		PaperClaim: "adaptivity to *when* the topology is degraded — not raw smothering power — is what slows broadcast under churn",
		Run:        runChurnWindowFamily,
	})
}

// lazyStorm returns the family's storm timeline on graph.TwoCliques(n),
// compiled on the first call and shared by every later one: its epochs and
// their degraded-window flags. graph.TwoCliques is the dual clique's
// reliable skeleton with G' = G: no standing unreliable fringe, so the only
// E'\E edges that ever exist are the ones the storm epochs flare up, and the
// degraded windows are the adversary's entire attack surface. Ten storm
// epochs of two decay sweeps each start before the natural bridge crossing
// and cover its whole distribution, and every epoch flares 6n transient
// unreliable pairs (the bridge listener gains ~12 interference neighbors)
// plus a few demotions.
//
// Only trials run on the timeline, so it is built from a point's factory and
// a declaration that plans or merges builds none. Its parameters are fixed,
// so a generation or compile error is a bug: the panic fails the trial that
// hit it, as a *TrialError.
func lazyStorm(n int, seed uint64) func() ([]radio.Epoch, []bool) {
	return sync.OnceValues(func() ([]radio.Epoch, []bool) {
		gen := scenario.GenConfig{
			Epochs:    10,
			EpochLen:  2 * bitrand.LogN(n),
			Demotions: 8,
			Storms:    6 * n,
			Protected: []graph.NodeID{0},
			MaxRounds: 400 * n,
		}
		sc, err := scenario.Generate(graph.TwoCliques(n), bitrand.New(seed), gen)
		var epochs []radio.Epoch
		if err == nil {
			epochs, err = sc.Compile()
		}
		if err != nil {
			panic(fmt.Sprintf("experiments: storm scenario at n=%d: %v", n, err))
		}
		return epochs, sc.DegradedWindows()
	})
}

func runChurnWindowFamily(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "ADV-churnwindow",
		Title:      "Adversaries vs churn windows (storm epochs on two reliable cliques)",
		PaperClaim: "churn-blind smothering ≡ no adversary; churn-aligned smothering strictly slows completion at shared seeds",
		Table:      stats.NewTable("adversary", "n", "median", "p90", "vs blind", "solved"),
	}
	trials := cfg.trials()
	sizes := []int{32, 64}
	if !cfg.Quick {
		sizes = []int{32, 64, 128}
	}
	res.Pass = true
	var ns, ratios []float64
	sw := newSweep(cfg)
	for _, n := range sizes {
		n := n
		maxRounds := 400 * n
		storm := lazyStorm(n, 3000+uint64(n))
		var blindMed float64
		for _, row := range []struct {
			name string
			link func(wins []bool) any // nil: no adversary
		}{
			// Declaration order fixes aggregation order: the blind row must
			// aggregate before the aligned rows that report ratios against it.
			{"none", nil},
			{"static-all", func([]bool) any { return adversary.AlwaysAll() }},
			{"churn-blind", func(wins []bool) any { return adversary.ChurnWindowOffline{Windows: wins, Invert: true} }},
			{"churnwindow-online", func(wins []bool) any { return adversary.ChurnWindow{Windows: wins, C: 1} }},
			{"churnwindow", func(wins []bool) any { return adversary.ChurnWindowOffline{Windows: wins} }},
		} {
			row := row
			sw.point(trials, func(seed uint64) radio.Config {
				epochs, wins := storm()
				c := radio.Config{
					Epochs:    epochs,
					Algorithm: core.DecayGlobal{},
					Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
					Seed:      seed,
					MaxRounds: maxRounds,
				}
				if row.link != nil {
					c.Link = row.link(wins)
				}
				return c
			}, func(out trialOutcome) {
				if out.Solved < out.Trials {
					res.Pass = false
				}
				ratio := 1.0
				switch row.name {
				case "churn-blind":
					blindMed = out.MedianRounds
				case "churnwindow-online", "churnwindow":
					if blindMed <= 0 {
						panic("experiments: ADV-churnwindow aligned row aggregated before its blind sibling")
					}
					ratio = out.MedianRounds / blindMed
					if row.name == "churnwindow" {
						// The acceptance claim: the churn-exploiting offline
						// adversary strictly slows completion vs the
						// churn-blind one at shared seeds.
						if out.MedianRounds <= blindMed {
							res.Pass = false
						}
						ns = append(ns, float64(n))
						ratios = append(ratios, ratio)
					}
				}
				res.Table.AddRow(row.name, n, out.MedianRounds, out.P90, ratio,
					fmt.Sprintf("%d/%d", out.Solved, out.Trials))
			})
		}
	}
	return sw.finish(func() *Result {
		res.addSeries("churnwindow/blind slowdown vs n", ns, ratios)
		res.Notes = append(res.Notes,
			"base has G' = G: outside the storm epochs every selector chooses from an empty E'\\E, so the churn-blind rows match the no-adversary rows exactly",
			"all rows share seeds; 'vs blind' is the completion-slowdown factor over the churn-blind control",
			verdict(res.Pass))
		return res
	})
}
