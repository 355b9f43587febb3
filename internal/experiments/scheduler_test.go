package experiments

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

func testTrialConfig(seed uint64) radio.Config {
	net := graph.UniformDual(graph.Clique(24))
	return radio.Config{
		Net:       net,
		Algorithm: core.DecayGlobal{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
		Seed:      seed,
		MaxRounds: 10000,
	}
}

// runTrials executes the config-factory over `trials` seeds through the
// sweep scheduler and aggregates. It is the one-point convenience form of
// declaring a sweep; multi-point experiments declare their whole sweep so
// trials from every point interleave on the pool.
func runTrials(cfg Config, mk func(seed uint64) radio.Config, trials int) (trialOutcome, error) {
	sw := newSweep(cfg)
	var out trialOutcome
	sw.point(trials, mk, func(o trialOutcome) { out = o })
	_, err := sw.finish(func() *Result { return nil })
	return out, err
}

// runTrialsSequential is the single-threaded reference used to verify the
// scheduler.
func runTrialsSequential(mk func(seed uint64) radio.Config, trials int, baseSeed uint64) (trialOutcome, error) {
	recs := make([]taskRecord, trials)
	for i := 0; i < trials; i++ {
		res, err := radio.Run(mk(baseSeed + uint64(i) + 1))
		recs[i] = taskRecord{vals: []float64{float64(res.Rounds), boolBit(res.Solved)}, err: err}
	}
	return aggregateTrials(recs)
}

func TestSchedulerMatchesSequential(t *testing.T) {
	par, err := runTrials(Config{BaseSeed: 100, Workers: 8}, testTrialConfig, 8)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := runTrialsSequential(testTrialConfig, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if par.Solved != seq.Solved || par.Trials != seq.Trials || par.Censored != seq.Censored {
		t.Fatalf("scheduler %+v != sequential %+v", par, seq)
	}
	if math.Abs(par.MedianRounds-seq.MedianRounds) > 1e-9 ||
		math.Abs(par.MeanRounds-seq.MeanRounds) > 1e-9 ||
		math.Abs(par.P90-seq.P90) > 1e-9 {
		t.Fatalf("aggregates diverge: scheduler %+v vs sequential %+v", par, seq)
	}
}

func TestSchedulerZeroTrials(t *testing.T) {
	out, err := runTrials(Config{}, testTrialConfig, 0)
	if err != nil || out.Trials != 0 {
		t.Fatalf("zero trials: %+v, %v", out, err)
	}
}

func TestSchedulerAggregatesAllTrialErrors(t *testing.T) {
	bad := func(seed uint64) radio.Config {
		if seed%2 == 0 {
			return radio.Config{} // nil network: invalid
		}
		return testTrialConfig(seed)
	}
	// Seeds are BaseSeed+i+1 = 1..6, so trials 1, 3, 5 get even seeds.
	_, err := runTrials(Config{Workers: 4}, bad, 6)
	if err == nil {
		t.Fatal("invalid config error not propagated")
	}
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("error %T is not a *TrialError: %v", err, err)
	}
	if len(te.Failed) != 3 || te.Failed[0] != 1 || te.Failed[1] != 3 || te.Failed[2] != 5 {
		t.Fatalf("failed trials = %v, want [1 3 5]", te.Failed)
	}
	if !errors.Is(err, radio.ErrBadConfig) {
		t.Fatalf("error does not unwrap to ErrBadConfig: %v", err)
	}
	if !strings.Contains(err.Error(), "[1 3 5]") {
		t.Fatalf("error message lacks failing indices: %v", err)
	}
}

// TestTrialErrorIndicesAreSweepLocal pins the coordinate system of
// TrialError.Failed: indices are sweep-local (equal to the experiment's task
// declaration indices), not point-local — the failing point here starts at
// offset 2, so its local failures [0 1 2] surface as [2 3 4]. Sharded merges
// and the run service's structured errors both rely on this frame.
func TestTrialErrorIndicesAreSweepLocal(t *testing.T) {
	bad := func(seed uint64) radio.Config { return radio.Config{} } // nil network: invalid
	sw := newSweep(Config{Workers: 2})
	sw.point(2, testTrialConfig, func(trialOutcome) {})
	sw.point(3, bad, func(trialOutcome) {})
	_, err := sw.finish(func() *Result { return nil })
	if err == nil {
		t.Fatal("invalid config error not propagated")
	}
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("error %T is not a *TrialError: %v", err, err)
	}
	if len(te.Failed) != 3 || te.Failed[0] != 2 || te.Failed[1] != 3 || te.Failed[2] != 4 {
		t.Fatalf("failed task indices = %v, want sweep-local [2 3 4]", te.Failed)
	}
}

// TestRunAllRecoversTrialPanic pins the worker pool's panic recovery: a
// panicking task becomes its record's error and fails its experiment as a
// *TrialError naming that task, even though this aggregation closure never
// looks at errors, while a sibling experiment sharing the pool finishes
// with the result it has when run alone.
func TestRunAllRecoversTrialPanic(t *testing.T) {
	panicky := Experiment{ID: "X-panic", Run: func(cfg Config) (*Result, error) {
		sw := newSweep(cfg)
		sw.tasks(6, func(i int) ([]float64, error) {
			if i == 3 {
				panic("boom")
			}
			return []float64{float64(i)}, nil
		}, func([]taskRecord) error { return nil })
		return sw.finish(func() *Result { return &Result{} })
	}}
	sibling, ok := ByID("L3.2-hitting")
	if !ok {
		t.Fatal("experiment L3.2-hitting not registered")
	}
	cfg := Config{Quick: true, Trials: 2, Workers: 2}
	results, errs := RunAll(cfg, []Experiment{panicky, sibling})

	var te *TrialError
	if !errors.As(errs[0], &te) {
		t.Fatalf("panicking experiment: error %T is not a *TrialError: %v", errs[0], errs[0])
	}
	if len(te.Failed) != 1 || te.Failed[0] != 3 {
		t.Fatalf("failed tasks = %v, want [3]", te.Failed)
	}
	if !strings.Contains(errs[0].Error(), "task 3 panicked: boom") {
		t.Fatalf("error does not name the panic: %v", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("sibling experiment failed: %v", errs[1])
	}
	solo, err := sibling.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(results[1]) != resultFingerprint(solo) {
		t.Error("sibling experiment's result differs from its standalone run")
	}

	// The shard-execute path runs the same job closures: the panic lands in
	// the artifact as task 3's error.
	art, err := ExecuteShard(cfg, []Experiment{panicky}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Records) != 6 {
		t.Fatalf("artifact holds %d records, want 6", len(art.Records))
	}
	for _, rec := range art.Records {
		if panicked := strings.Contains(rec.Err, "task 3 panicked: boom"); panicked != (rec.Index == 3) {
			t.Errorf("artifact record %d: err %q", rec.Index, rec.Err)
		}
	}
}

func TestSchedulerCensoredCounting(t *testing.T) {
	// One round is never enough to cross a 24-node path, so every trial is
	// censored at its budget.
	stall := func(seed uint64) radio.Config {
		cfg := testTrialConfig(seed)
		cfg.Net = graph.UniformDual(graph.Line(24))
		cfg.MaxRounds = 1
		return cfg
	}
	out, err := runTrials(Config{}, stall, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Solved != 0 || out.Censored != 4 {
		t.Fatalf("censored accounting: %+v", out)
	}
	if out.MedianRounds != 1 {
		t.Fatalf("censored trials must contribute their budget: %+v", out)
	}
}

// resultFingerprint renders everything the harness reports for an
// experiment; two runs with equal fingerprints produced byte-identical
// output.
func resultFingerprint(res *Result) string {
	var b strings.Builder
	b.WriteString(res.Table.String())
	b.WriteString(res.Table.CSV())
	for _, n := range res.Notes {
		b.WriteString(n)
		b.WriteString("\n")
	}
	for _, s := range res.Series {
		b.WriteString(s.Name)
		for i := range s.X {
			b.WriteString(strconv.FormatUint(math.Float64bits(s.X[i]), 16) + "," +
				strconv.FormatUint(math.Float64bits(s.Y[i]), 16) + ";")
		}
	}
	return b.String()
}

// TestSchedulerDeterminism asserts that forced-sequential (Workers: 1) and
// parallel (Workers: 8) execution produce identical tables, notes, and
// series for one experiment per link model: static (no link process),
// oblivious (committed schedules), and online adaptive — plus EXT-derand,
// whose trials share lazily built substrates (a dual clique, its committed
// fringe and a compiled storm scenario) that the first trial to run builds.
func TestSchedulerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	for _, id := range []string{
		"F1-static-local",            // static: nil link
		"F1-oblivious-local-general", // oblivious: presample adversary
		"F1-online-global",           // online adaptive: dense/sparse
		"EXT-derand",                 // lazy substrates shared by concurrent trials
	} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			exp, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			seqRes, err := exp.Run(Config{Quick: true, Trials: 2, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parRes, err := exp.Run(Config{Quick: true, Trials: 2, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			seq, par := resultFingerprint(seqRes), resultFingerprint(parRes)
			if seq != par {
				t.Fatalf("output diverges between Workers:1 and Workers:8\n--- sequential:\n%s\n--- parallel:\n%s", seq, par)
			}
		})
	}
}

// TestRunAllSharedPool runs a slice of the registry through the shared
// cross-experiment pool and checks each result matches a standalone run.
func TestRunAllSharedPool(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	ids := []string{"F1-static-local", "L3.2-hitting"}
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps[i] = e
	}
	cfg := Config{Quick: true, Trials: 2}
	results, errs := RunAll(cfg, exps)
	if len(results) != len(exps) || len(errs) != len(exps) {
		t.Fatalf("RunAll returned %d results, %d errors for %d experiments", len(results), len(errs), len(exps))
	}
	for i, e := range exps {
		if errs[i] != nil {
			t.Fatalf("%s: %v", e.ID, errs[i])
		}
		solo, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if resultFingerprint(results[i]) != resultFingerprint(solo) {
			t.Errorf("%s: shared-pool output differs from standalone run", e.ID)
		}
	}
}
