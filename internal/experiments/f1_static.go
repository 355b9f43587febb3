package experiments

import (
	"fmt"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "F1-static-global",
		Title:      "Global broadcast, no dynamic links (protocol model)",
		PaperClaim: "Θ(D·log(n/D) + log²n) [Bar-Yehuda et al.; Figure 1 row 4]",
		Run:        runStaticGlobal,
	})
	register(Experiment{
		ID:         "F1-static-local",
		Title:      "Local broadcast, no dynamic links (protocol model)",
		PaperClaim: "Θ(log n · log Δ) [Figure 1 row 4]",
		Run:        runStaticLocal,
	})
}

// lineNet returns the path network wrapped as a protocol-model dual graph.
func lineNet(n int) *graph.Dual { return graph.UniformDual(graph.Line(n)) }

// geoGridNet returns a connected jittered-grid geographic dual graph with
// side×side nodes.
func geoGridNet(side int, seed uint64) *graph.Dual {
	return graph.GeographicGrid(bitrand.New(seed), side, side, 0.7, 1.5)
}

func runStaticGlobal(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "F1-static-global",
		Title:      "Global broadcast, no dynamic links",
		PaperClaim: "Θ(D·log(n/D) + log²n)",
		Table:      stats.NewTable("topology", "algorithm", "n", "D", "median", "T/(D·logn+log²n)", "solved"),
	}
	sizes := []int{64, 256}
	if !cfg.Quick {
		sizes = []int{64, 256, 1024}
	}
	algs := []radio.Algorithm{core.DecayGlobal{}, core.PermutedGlobal{}}

	type point struct{ n, d, rounds float64 }
	var linePoints []point
	sw := newSweep(cfg)
	for _, alg := range algs {
		for _, n := range sizes {
			net := lineNet(n)
			d := n - 1
			sw.point(cfg.trials(), func(seed uint64) radio.Config {
				return radio.Config{
					Net: net, Algorithm: alg,
					Spec: radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
					Seed: seed, MaxRounds: 200 * n,
				}
			}, func(out trialOutcome) {
				ratio := stats.PolylogRatio(out.MedianRounds, d, n)
				res.Table.AddRow("line", alg.Name(), n, d, out.MedianRounds, ratio, fmt.Sprintf("%d/%d", out.Solved, out.Trials))
				if alg.Name() == "decay-global" {
					linePoints = append(linePoints, point{float64(n), float64(d), out.MedianRounds})
				}
			})
		}
		// Constant-ish diameter geographic grids exercise the log²n term.
		for _, side := range gridSides(cfg) {
			net := geoGridNet(side, 77)
			n := net.N()
			d := graph.DiameterApprox(net.G())
			sw.point(cfg.trials(), func(seed uint64) radio.Config {
				return radio.Config{
					Net: net, Algorithm: alg,
					Spec: radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
					Seed: seed, MaxRounds: 200 * n,
				}
			}, func(out trialOutcome) {
				ratio := stats.PolylogRatio(out.MedianRounds, d, n)
				res.Table.AddRow("geo-grid", alg.Name(), n, d, out.MedianRounds, ratio, fmt.Sprintf("%d/%d", out.Solved, out.Trials))
			})
		}
	}
	return sw.finish(func() *Result {
		// Shape check on lines: T should scale ~linearly with D (exponent ≈1 vs
		// n since D = n-1), and the ratio to the claimed bound should be stable.
		var ns, ts []float64
		for _, p := range linePoints {
			ns = append(ns, p.n)
			ts = append(ts, p.rounds)
		}
		res.addSeries("decay-global on lines", ns, ts)
		fit := stats.GrowthExponent(ns, ts)
		res.Notes = append(res.Notes, fmt.Sprintf("decay on lines: T ~ n^%.2f (R²=%.2f); claim predicts exponent ≈ 1 via the D term", fit.Slope, fit.R2))
		res.Pass = fit.Slope > 0.7 && fit.Slope < 1.3
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}

func gridSides(cfg Config) []int {
	if cfg.Quick {
		return []int{7}
	}
	return []int{8, 16}
}

func runStaticLocal(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "F1-static-local",
		Title:      "Local broadcast, no dynamic links",
		PaperClaim: "Θ(log n · log Δ)",
		Table:      stats.NewTable("algorithm", "n", "Δ", "median", "T/(logn·logΔ)", "solved"),
	}
	sides := []int{6, 9}
	if !cfg.Quick {
		sides = []int{8, 16, 24}
	}
	var ns, ts []float64
	sw := newSweep(cfg)
	for _, side := range sides {
		net := geoGridNet(side, 99)
		n := net.N()
		delta := net.MaxDegree()
		var b []graph.NodeID
		for u := 0; u < n; u += 3 {
			b = append(b, u)
		}
		for _, alg := range []radio.Algorithm{core.DecayLocal{}, core.RoundRobin{}} {
			sw.point(cfg.trials(), func(seed uint64) radio.Config {
				return radio.Config{
					Net: net, Algorithm: alg,
					Spec: radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: b},
					Seed: seed, MaxRounds: 64 * n,
				}
			}, func(out trialOutcome) {
				logN := float64(bitrand.LogN(n))
				logD := float64(bitrand.LogN(delta))
				res.Table.AddRow(alg.Name(), n, delta, out.MedianRounds, out.MedianRounds/(logN*logD),
					fmt.Sprintf("%d/%d", out.Solved, out.Trials))
				if alg.Name() == "decay-local" {
					ns = append(ns, float64(n))
					ts = append(ts, out.MedianRounds)
				}
			})
		}
	}
	return sw.finish(func() *Result {
		res.addSeries("decay-local on geo grids", ns, ts)
		fit := stats.GrowthExponent(ns, ts)
		res.Notes = append(res.Notes, fmt.Sprintf("decay-local: T ~ n^%.2f (R²=%.2f); polylog claim predicts exponent near 0", fit.Slope, fit.R2))
		res.Pass = fit.Slope < 0.5
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}
