package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/shard"
)

// shardTestExps picks one point-based engine experiment, both tasks-based
// lemma checks, and the scenario-layer families (epoch churn, raw-task
// contention, and the churn-window adversary race), covering every task
// flavor the scheduler shards.
func shardTestExps(t testing.TB) []Experiment {
	t.Helper()
	ids := []string{"ADV-churnwindow", "CHURN-gossip", "EXT-contention", "F1-static-local", "L3.2-hitting", "L4.2-permdecay"}
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps[i] = e
	}
	return exps
}

func TestPlanTasksDeterministic(t *testing.T) {
	cfg := Config{Quick: true, Trials: 2}
	exps := shardTestExps(t)
	p1, err := PlanTasks(cfg, exps)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanTasks(cfg, exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(exps) {
		t.Fatalf("plan has %d rows for %d experiments", len(p1), len(exps))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("plan not deterministic: %+v vs %+v", p1[i], p2[i])
		}
		if p1[i].ID != exps[i].ID || p1[i].Tasks <= 0 {
			t.Fatalf("plan row %d = %+v, want tasks > 0 for %s", i, p1[i], exps[i].ID)
		}
	}
}

// TestShardMergeMatchesRunAll is the core sharding invariant, table-driven
// over K: executing the plan as K shards and merging produces results whose
// rendered tables, notes, and series are byte-identical to an unsharded
// shared-pool run at the same seeds.
func TestShardMergeMatchesRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	cfg := Config{Quick: true, Trials: 2, BaseSeed: 3}
	exps := shardTestExps(t)
	baseline, errs := RunAll(cfg, exps)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", exps[i].ID, err)
		}
	}
	for _, k := range []int{1, 2, 3} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			t.Parallel()
			arts := make([]*shard.Artifact, k)
			for i := 1; i <= k; i++ {
				art, err := ExecuteShard(cfg, exps, i, k)
				if err != nil {
					t.Fatalf("shard %d/%d: %v", i, k, err)
				}
				arts[i-1] = art
			}
			// The shards must tile the plan: together they hold every task
			// exactly once (Merge validates this and errors otherwise).
			merged, err := shard.Merge(arts)
			if err != nil {
				t.Fatal(err)
			}
			mergedExps, err := MergedExperiments(merged)
			if err != nil {
				t.Fatal(err)
			}
			results, errs := RunMerged(ConfigFromMerged(merged), mergedExps, merged)
			if len(results) != len(exps) {
				t.Fatalf("merged %d results for %d experiments", len(results), len(exps))
			}
			for i := range mergedExps {
				if errs[i] != nil {
					t.Fatalf("%s: %v", mergedExps[i].ID, errs[i])
				}
				if got, want := resultFingerprint(results[i]), resultFingerprint(baseline[i]); got != want {
					t.Errorf("%s: merged output differs from unsharded run at K=%d\n--- unsharded:\n%s\n--- merged:\n%s",
						mergedExps[i].ID, k, want, got)
				}
			}
		})
	}
}

// TestShardsAreBalanced checks the round-robin partition: no shard owns
// more than ceil(total/K) tasks, so K machines see near-equal queues.
func TestShardsAreBalanced(t *testing.T) {
	cfg := Config{Quick: true, Trials: 2}
	exps := []Experiment{mustByID(t, "L3.2-hitting"), mustByID(t, "L4.2-permdecay")}
	plan, err := PlanTasks(cfg, exps)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range plan {
		total += p.Tasks
	}
	const k = 3
	owned := 0
	for i := 1; i <= k; i++ {
		art, err := ExecuteShard(cfg, exps, i, k)
		if err != nil {
			t.Fatal(err)
		}
		if max := (total + k - 1) / k; len(art.Records) > max {
			t.Errorf("shard %d/%d owns %d of %d tasks, max fair share %d", i, k, len(art.Records), total, max)
		}
		owned += len(art.Records)
	}
	if owned != total {
		t.Fatalf("shards own %d tasks, plan has %d", owned, total)
	}
}

func TestExecuteShardRejectsBadIndex(t *testing.T) {
	exps := []Experiment{mustByID(t, "L3.2-hitting")}
	for _, bad := range [][2]int{{0, 2}, {3, 2}, {1, 0}} {
		if _, err := ExecuteShard(Config{Quick: true}, exps, bad[0], bad[1]); err == nil {
			t.Errorf("shard %d/%d accepted", bad[0], bad[1])
		}
	}
}

// TestMergeReplaysTrialErrors injects a recorded trial failure into an
// artifact and checks the merge surfaces it as the sweep's *TrialError,
// message intact — distributed trial failures report at merge time instead
// of killing the executing machine's whole shard.
func TestMergeReplaysTrialErrors(t *testing.T) {
	cfg := Config{Quick: true, Trials: 2}
	exps := []Experiment{mustByID(t, "F1-static-local")}
	art, err := ExecuteShard(cfg, exps, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	art.Records[0].Err = "injected remote failure"
	merged, err := shard.Merge([]*shard.Artifact{art})
	if err != nil {
		t.Fatal(err)
	}
	_, errs := RunMerged(ConfigFromMerged(merged), exps, merged)
	if errs[0] == nil {
		t.Fatal("recorded trial failure not surfaced by merge")
	}
	var te *TrialError
	if !errors.As(errs[0], &te) {
		t.Fatalf("merge error %T is not a *TrialError: %v", errs[0], errs[0])
	}
	if !strings.Contains(errs[0].Error(), "injected remote failure") {
		t.Fatalf("merge error lost the recorded message: %v", errs[0])
	}
}

// TestMergeRejectsUnconsumedRecords simulates merging artifacts written by
// a binary whose sweep declared more tasks than this one does (plan claims
// extra records): the replay must fail loudly instead of silently matching
// records against the wrong (point, trial) pairs.
func TestMergeRejectsUnconsumedRecords(t *testing.T) {
	cfg := Config{Quick: true, Trials: 2}
	exps := []Experiment{mustByID(t, "L4.2-permdecay")}
	art, err := ExecuteShard(cfg, exps, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	id := exps[0].ID
	n := art.Plan[0].Tasks
	art.Plan[0].Tasks = n + 2
	art.Records = append(art.Records,
		shard.TaskRecord{Exp: id, Index: n, Vals: []float64{1}},
		shard.TaskRecord{Exp: id, Index: n + 1, Vals: []float64{1}})
	merged, err := shard.Merge([]*shard.Artifact{art})
	if err != nil {
		t.Fatal(err)
	}
	results, errs := RunMerged(ConfigFromMerged(merged), exps, merged)
	if errs[0] == nil || results[0] != nil {
		t.Fatalf("surplus planned records accepted: res=%v err=%v", results[0], errs[0])
	}
}

// TestMergeRejectsEmptyRecord strips one record of both values and error
// (a truncated or hand-edited artifact): the replay must refuse rather
// than silently aggregate zeros.
func TestMergeRejectsEmptyRecord(t *testing.T) {
	cfg := Config{Quick: true, Trials: 2}
	exps := []Experiment{mustByID(t, "L4.2-permdecay")}
	art, err := ExecuteShard(cfg, exps, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	art.Records[3].Vals = nil
	art.Records[3].Err = ""
	merged, err := shard.Merge([]*shard.Artifact{art})
	if err != nil {
		t.Fatal(err)
	}
	_, errs := RunMerged(ConfigFromMerged(merged), exps, merged)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "neither values nor an error") {
		t.Fatalf("value-less record accepted: %v", errs[0])
	}
}

func mustByID(t testing.TB, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return e
}

// runCounter wraps experiments so each Run call is counted, the way the
// benchmark harness wraps the catalog to trace them.
type runCounter struct {
	mu    sync.Mutex
	calls map[string]int
}

func countRuns(exps []Experiment) ([]Experiment, *runCounter) {
	c := &runCounter{calls: map[string]int{}}
	out := make([]Experiment, len(exps))
	for i, e := range exps {
		run := e.Run
		e.Run = func(cfg Config) (*Result, error) {
			c.mu.Lock()
			c.calls[e.ID]++
			c.mu.Unlock()
			return run(cfg)
		}
		out[i] = e
	}
	return out, c
}

// expectOnce checks every experiment's Run was called exactly once since
// the last check.
func (c *runCounter) expectOnce(t *testing.T, call string, exps []Experiment) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range exps {
		if n := c.calls[e.ID]; n != 1 {
			t.Errorf("%s called %s's Run %d times, want 1", call, e.ID, n)
		}
	}
	clear(c.calls)
}

// TestLifecycleRunsEachExperimentOnce pins the declare → fill → finish
// lifecycle's cost: every entry point declares each experiment exactly once
// and composes its steps around that one declaration.
func TestLifecycleRunsEachExperimentOnce(t *testing.T) {
	cfg := Config{Quick: true, Trials: 2}
	exps, runs := countRuns([]Experiment{mustByID(t, "CHURN-gossip"), mustByID(t, "L3.2-hitting"), mustByID(t, "L4.2-permdecay")})

	if _, err := PlanTasks(cfg, exps); err != nil {
		t.Fatal(err)
	}
	runs.expectOnce(t, "PlanTasks", exps)
	art, err := ExecuteShard(cfg, exps, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	runs.expectOnce(t, "ExecuteShard", exps)
	merged, err := shard.Merge([]*shard.Artifact{art})
	if err != nil {
		t.Fatal(err)
	}
	if _, errs := RunMerged(ConfigFromMerged(merged), exps, merged); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	runs.expectOnce(t, "RunMerged", exps)
	if _, errs := RunAll(cfg, exps); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	runs.expectOnce(t, "RunAll", exps)
}

// TestPlanAndMergeBuildNothing pins what a declaration builds: only what
// its aggregation or build step reads. PlanTasks and RunMerged run no trial,
// so they must not build the dual cliques, storm scenarios and SCALE-n
// networks that only trials run on. The bounds are about twice what the
// declarations themselves allocate (closures, tables, the eager geo grids,
// bracelets and CHURN scenarios whose sizes the tables print); one eagerly
// built substrate family overshoots them several times over.
func TestPlanAndMergeBuildNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	if raceEnabled {
		t.Skip("the race runtime inflates allocation")
	}
	allocMB := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	exps := All()
	check := func(what string, mb, bound float64) {
		t.Logf("%s allocated %.1f MB", what, mb)
		if mb > bound {
			t.Errorf("%s allocated %.1f MB, bound %.1f MB: a declaration is building what only its trials run on", what, mb, bound)
		}
	}
	for _, c := range []struct {
		cfg   Config
		bound float64
	}{
		{Config{Quick: true}, 4},
		{Config{}, 25},
	} {
		var err error
		mb := allocMB(func() { _, err = PlanTasks(c.cfg, exps) })
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("PlanTasks(All(), Quick=%v)", c.cfg.Quick), mb, c.bound)
	}

	cfg := Config{Quick: true, Trials: 1}
	art, err := ExecuteShard(cfg, exps, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := shard.Merge([]*shard.Artifact{art})
	if err != nil {
		t.Fatal(err)
	}
	var errs []error
	mb := allocMB(func() { _, errs = RunMerged(ConfigFromMerged(merged), exps, merged) })
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	check("RunMerged(All())", mb, 4)
}

// TestDeclareRejectsSweepCount: the lifecycle needs exactly one sweep per
// experiment, and says so when the experiment is declared — naming it —
// rather than at merge.
func TestDeclareRejectsSweepCount(t *testing.T) {
	task := func(int) ([]float64, error) { return []float64{1}, nil }
	none := Experiment{ID: "X-no-sweep", Run: func(Config) (*Result, error) { return &Result{}, nil }}
	two := Experiment{ID: "X-two-sweeps", Run: func(cfg Config) (*Result, error) {
		first := newSweep(cfg)
		first.tasks(2, task, nil)
		if _, err := first.finish(func() *Result { return &Result{} }); err != nil {
			return nil, err
		}
		second := newSweep(cfg)
		second.tasks(2, task, nil)
		return second.finish(func() *Result { return &Result{} })
	}}
	for _, bad := range []Experiment{none, two} {
		_, err := PlanTasks(Config{Quick: true, Trials: 2}, []Experiment{mustByID(t, "L3.2-hitting"), bad})
		if err == nil || !strings.Contains(err.Error(), bad.ID) {
			t.Errorf("PlanTasks with %s: error %v, want one naming it", bad.ID, err)
		}
	}
}

// TestDualCliquesSharedPerCall pins the dual-clique table of a lifecycle
// call: in one ExecuteShard of the four F1 adaptive-adversary experiments,
// both experiments of a pair run at each size on the same *graph.Dual —
// F1-offline-global and F1-offline-local on DualClique(64, 3) and
// (256, 3), F1-online-global and F1-online-local on (128, 3) and (512, 3)
// — so each size is built once. It swaps runTrial, so it must not run in
// parallel with other tests.
func TestDualCliquesSharedPerCall(t *testing.T) {
	ids := []string{"F1-offline-global", "F1-offline-local", "F1-online-global", "F1-online-local"}
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps[i] = e
	}
	// A trial is named by its problem, adversary and size.
	type point struct {
		problem radio.Problem
		link    string
		n       int
	}
	var mu sync.Mutex
	nets := map[point]map[*graph.Dual]bool{}
	defer func(run func(radio.Config) (radio.Result, error)) { runTrial = run }(runTrial)
	runTrial = func(cfg radio.Config) (radio.Result, error) {
		mu.Lock()
		p := point{cfg.Spec.Problem, fmt.Sprintf("%T", cfg.Link), cfg.Net.N()}
		if nets[p] == nil {
			nets[p] = map[*graph.Dual]bool{}
		}
		nets[p][cfg.Net] = true
		mu.Unlock()
		return radio.Run(cfg)
	}
	if _, err := ExecuteShard(Config{Quick: true, Trials: 2, Workers: 2}, exps, 1, 1); err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		link  string
		sizes []int
	}{
		{fmt.Sprintf("%T", adversary.Jam{}), []int{64, 256}},
		{fmt.Sprintf("%T", adversary.DenseSparse{}), []int{128, 512}},
	} {
		for _, n := range pair.sizes {
			global := nets[point{radio.GlobalBroadcast, pair.link, n}]
			local := nets[point{radio.LocalBroadcast, pair.link, n}]
			if len(global) != 1 || len(local) != 1 {
				t.Fatalf("%s n=%d: global trials ran on %d networks, local on %d, want 1 each", pair.link, n, len(global), len(local))
			}
			for d := range global {
				if !local[d] {
					t.Errorf("%s n=%d: the global and local experiments ran on two builds of one dual clique", pair.link, n)
				}
			}
		}
	}
}
