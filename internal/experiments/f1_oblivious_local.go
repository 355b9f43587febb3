package experiments

import (
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "F1-oblivious-local-general",
		Title:      "Local broadcast vs oblivious adversary, general graphs (bracelet)",
		PaperClaim: "Ω(√n / log n) [Theorem 4.3]",
		Run:        runBracelet,
	})
	register(Experiment{
		ID:         "F1-oblivious-local-geo",
		Title:      "Local broadcast vs oblivious adversary, geographic graphs",
		PaperClaim: "O(log²n · log Δ) via seeded permuted decay [Theorem 4.6]",
		Run:        runObliviousGeoLocal,
	})
}

func runBracelet(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "F1-oblivious-local-general",
		Title:      "Local broadcast on the bracelet network",
		PaperClaim: "Ω(√n / log n)",
		Table:      stats.NewTable("algorithm", "n", "bandLen(√n/2)", "median", "median/√n", "solved"),
	}
	bands := []int{8, 16}
	if !cfg.Quick {
		bands = []int{8, 16, 32}
	}
	var ns, ts []float64
	sw := newSweep(cfg)
	for _, k := range bands {
		d, m := graph.BraceletExplicit(k, k, k/2)
		n := d.N()
		b := append(append([]graph.NodeID(nil), m.AHead...), m.BHead...)
		for _, alg := range []radio.Algorithm{core.Aloha{P: 0.5}, core.PermutedLocalUncoordinated{}} {
			sw.point(cfg.trials(), func(seed uint64) radio.Config {
				return radio.Config{
					Net: d, Algorithm: alg,
					Spec: radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: b},
					Link: adversary.Presample{C: 1, Horizon: m.BandLen},
					Seed: seed, MaxRounds: 100 * n,
				}
			}, func(out trialOutcome) {
				res.Table.AddRow(alg.Name(), n, m.BandLen, out.MedianRounds,
					out.MedianRounds/math.Sqrt(float64(n)), fmt.Sprintf("%d/%d", out.Solved, out.Trials))
				if alg.Name() == "aloha" {
					ns = append(ns, float64(n))
					ts = append(ts, out.MedianRounds)
				}
			})
		}
	}
	return sw.finish(func() *Result {
		res.addSeries("aloha on bracelet", ns, ts)
		fit := stats.GrowthExponent(ns, ts)
		res.Notes = append(res.Notes, fmt.Sprintf("aloha on bracelet: T ~ n^%.2f (R²=%.2f); Theorem 4.3 predicts exponent ≈ 0.5 (the √n band-isolation horizon)", fit.Slope, fit.R2))
		res.Pass = fit.Slope > 0.3 && fit.Slope < 0.8
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}

func runObliviousGeoLocal(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "F1-oblivious-local-geo",
		Title:      "Seeded local broadcast on geographic graphs",
		PaperClaim: "O(log²n · log Δ)",
		Table:      stats.NewTable("algorithm", "adversary", "n", "Δ", "median", "T/(log²n·logΔ)", "solved"),
	}
	sides := []int{6, 8}
	if !cfg.Quick {
		sides = []int{8, 12, 16}
	}
	var ns, ts []float64
	sw := newSweep(cfg)
	for _, side := range sides {
		net := geoGridNet(side, 55)
		n := net.N()
		delta := net.MaxDegree()
		var b []graph.NodeID
		for u := 0; u < n; u += 2 {
			b = append(b, u)
		}
		links := map[string]any{
			"random-loss": adversary.RandomLoss{P: 0.5},
			"presample":   adversary.Presample{C: 1, Horizon: 2 * n},
		}
		for _, advName := range sortedKeys(links) {
			link := links[advName]
			alg := core.GeoLocal{}
			sw.point(cfg.trials(), func(seed uint64) radio.Config {
				return radio.Config{
					Net: net, Algorithm: alg,
					Spec: radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: b},
					Link: link, Seed: seed, MaxRounds: 400 * n,
				}
			}, func(out trialOutcome) {
				logN := float64(bitrand.LogN(n))
				logD := float64(bitrand.LogN(delta))
				res.Table.AddRow(alg.Name(), advName, n, delta, out.MedianRounds,
					out.MedianRounds/(logN*logN*logD), fmt.Sprintf("%d/%d", out.Solved, out.Trials))
				if advName == "random-loss" {
					ns = append(ns, float64(n))
					ts = append(ts, out.MedianRounds)
				}
			})
		}
	}
	return sw.finish(func() *Result {
		res.addSeries("geo-local vs random loss", ns, ts)
		fit := stats.GrowthExponent(ns, ts)
		res.Notes = append(res.Notes, fmt.Sprintf("geo-local: T ~ n^%.2f (R²=%.2f); upper bound predicts polylog growth (exponent near 0)", fit.Slope, fit.R2))
		res.Pass = fit.Slope < 0.5
		res.Notes = append(res.Notes, verdict(res.Pass))
		return res
	})
}
