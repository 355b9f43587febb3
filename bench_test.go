// Package repro's root benchmarks regenerate every Figure-1 cell and
// supporting result of the paper. Each benchmark wraps one registered
// experiment (DESIGN.md documents the experiment index and the sweep
// scheduler); ns/op measures one full quick-scale experiment sweep, and the
// measured tables are printed once per benchmark so `go test -bench=.`
// doubles as a results report.
package main

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/experiments"
)

// benchCfg keeps benchmark iterations comparable and fast; the full-scale
// sweep lives in cmd/dgbench -full.
var benchCfg = experiments.Config{Quick: true, Trials: 3}

var printOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Table.NumRows() == 0 {
			b.Fatal("empty result table")
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			b.StopTimer()
			fmt.Printf("\n--- %s (%s)\n%s", res.ID, res.PaperClaim, res.Table)
			for _, n := range res.Notes {
				fmt.Printf("  %s\n", n)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkF1StaticGlobal regenerates Figure 1 row 4, global broadcast:
// Θ(D·log(n/D) + log²n) in the protocol model.
func BenchmarkF1StaticGlobal(b *testing.B) { benchExperiment(b, "F1-static-global") }

// BenchmarkF1StaticLocal regenerates Figure 1 row 4, local broadcast:
// Θ(log n · log Δ) in the protocol model.
func BenchmarkF1StaticLocal(b *testing.B) { benchExperiment(b, "F1-static-local") }

// BenchmarkF1OfflineGlobal regenerates Figure 1 row 1, global broadcast:
// Ω(n) on the dual clique against the offline adaptive jammer.
func BenchmarkF1OfflineGlobal(b *testing.B) { benchExperiment(b, "F1-offline-global") }

// BenchmarkF1OfflineLocal regenerates Figure 1 row 1, local broadcast: Ω(n).
func BenchmarkF1OfflineLocal(b *testing.B) { benchExperiment(b, "F1-offline-local") }

// BenchmarkF1OnlineGlobal regenerates Figure 1 row 2, global broadcast:
// Ω(n/log n) against the Theorem 3.1 dense/sparse adversary.
func BenchmarkF1OnlineGlobal(b *testing.B) { benchExperiment(b, "F1-online-global") }

// BenchmarkF1OnlineLocal regenerates Figure 1 row 2, local broadcast:
// Ω(n/log n).
func BenchmarkF1OnlineLocal(b *testing.B) { benchExperiment(b, "F1-online-local") }

// BenchmarkF1ObliviousGlobal regenerates Figure 1 row 3, global broadcast:
// O(D·log n + log²n) via permuted decay (Theorem 4.1), with plain decay as
// the stalled contrast.
func BenchmarkF1ObliviousGlobal(b *testing.B) { benchExperiment(b, "F1-oblivious-global") }

// BenchmarkF1ObliviousLocalGeneral regenerates Figure 1 row 3, local
// broadcast on general graphs: Ω(√n/log n) on the bracelet (Theorem 4.3).
func BenchmarkF1ObliviousLocalGeneral(b *testing.B) {
	benchExperiment(b, "F1-oblivious-local-general")
}

// BenchmarkF1ObliviousLocalGeo regenerates Figure 1 row 3, local broadcast
// on geographic graphs: O(log²n · log Δ) (Theorem 4.6).
func BenchmarkF1ObliviousLocalGeo(b *testing.B) { benchExperiment(b, "F1-oblivious-local-geo") }

// BenchmarkHittingUniform regenerates the Lemma 3.2 bound check.
func BenchmarkHittingUniform(b *testing.B) { benchExperiment(b, "L3.2-hitting") }

// BenchmarkHittingReduction regenerates the Theorem 3.1 reduction run.
func BenchmarkHittingReduction(b *testing.B) { benchExperiment(b, "T3.1-reduction") }

// BenchmarkLemma42 regenerates the permuted decay delivery probability
// check (Lemma 4.2).
func BenchmarkLemma42(b *testing.B) { benchExperiment(b, "L4.2-permdecay") }

// BenchmarkAblationPermutation regenerates the permutation-bit ablation.
func BenchmarkAblationPermutation(b *testing.B) { benchExperiment(b, "ABL-permutation") }

// BenchmarkAblationSeeds regenerates the seed-sharing ablation.
func BenchmarkAblationSeeds(b *testing.B) { benchExperiment(b, "ABL-seeds") }

// BenchmarkExtGossip regenerates the k-rumor spreading extension study
// (the paper's stated future work).
func BenchmarkExtGossip(b *testing.B) { benchExperiment(b, "EXT-gossip") }

// BenchmarkExtLeader regenerates the leader election extension study.
func BenchmarkExtLeader(b *testing.B) { benchExperiment(b, "EXT-leader") }

// BenchmarkAdvChurnWindow regenerates the churn-window adversary race:
// static vs churn-blind vs churn-exploiting link processes under storm
// epochs.
func BenchmarkAdvChurnWindow(b *testing.B) { benchExperiment(b, "ADV-churnwindow") }

// BenchmarkRegistrySharedPool runs the whole registry through
// experiments.RunAll's one shared worker pool: every (experiment ×
// sweep-point × trial) triple lands in one work queue, so ns/op tracks how
// the full quick suite scales with cores. `dgbench -all` drives the same
// declare → fill → finish steps through the run service instead.
func BenchmarkRegistrySharedPool(b *testing.B) {
	all := experiments.All()
	for i := 0; i < b.N; i++ {
		results, errs := experiments.RunAll(benchCfg, all)
		for j, err := range errs {
			if err != nil {
				b.Fatalf("%s: %v", all[j].ID, err)
			}
		}
		for j, res := range results {
			if res.Table.NumRows() == 0 {
				b.Fatalf("%s: empty result table", all[j].ID)
			}
		}
	}
}
