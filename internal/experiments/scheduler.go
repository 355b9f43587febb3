package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/radio"
	"repro/internal/stats"
)

// taskRecord is one task's complete contribution to its sweep: a small
// vector of raw values plus the task's error, if any. Records are the unit
// of serialization for sharded runs (internal/shard.TaskRecord is the wire
// form), so aggregation closures consume records — never state captured
// from inside the task — and a record loaded from a shard artifact is
// indistinguishable from one produced in-process.
type taskRecord struct {
	vals []float64
	err  error
}

// errText returns the record's error message for serialization ("" when the
// task succeeded).
func (r taskRecord) errText() string {
	if r.err == nil {
		return ""
	}
	return r.err.Error()
}

// val returns the i-th value, tolerating short vectors from foreign
// artifacts (a failed trial may carry no values at all).
func (r taskRecord) val(i int) float64 {
	if i >= len(r.vals) {
		return 0
	}
	return r.vals[i]
}

// boolBit encodes a bool into a record value.
func boolBit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// aggSpec is one aggregation closure together with the contiguous range of
// the sweep's task records it consumes.
type aggSpec struct {
	start, end int
	fn         func(recs []taskRecord) error
}

// sweep is a declared collection of work units. Experiments declare their
// sweep points (a seeded radio.Config factory per point) together with an
// aggregation closure per point, then end their Run with finish. Each task
// writes exactly one taskRecord; once every record is filled, the
// aggregation closures fire in declaration order over their record ranges.
// Each task's index fully determines its execution (seeds are derived from
// it), so the output is byte-identical no matter how many workers run, in
// which order tasks complete — or, for sharded runs, which machine ran
// which task.
type sweep struct {
	cfg  Config
	jobs []func()
	recs []taskRecord
	aggs []aggSpec
}

// newSweep starts an empty sweep under the given run configuration.
func newSweep(cfg Config) *sweep { return &sweep{cfg: cfg} }

// tasks declares n independent jobs plus one aggregation closure that runs
// after every job of the sweep has finished, in declaration order. fn(i)
// returns task i's record values (and error); it must derive everything from
// i alone so any subset of tasks can run in any process. A panic in fn is
// recovered into the task's record error, so one bad trial fails its
// experiment instead of the process and every run in flight. agg receives
// the point's records in task order, and only when none of them failed.
func (s *sweep) tasks(n int, fn func(i int) ([]float64, error), agg func(recs []taskRecord) error) {
	start := len(s.recs)
	s.recs = append(s.recs, make([]taskRecord, n)...)
	for i := 0; i < n; i++ {
		g := start + i
		s.jobs = append(s.jobs, func() {
			defer func() {
				if p := recover(); p != nil {
					s.recs[g] = taskRecord{err: fmt.Errorf("task %d panicked: %v", g, p)}
				}
			}()
			vals, err := fn(g - start)
			s.recs[g] = taskRecord{vals: vals, err: err}
		})
	}
	if agg != nil {
		s.aggs = append(s.aggs, aggSpec{start: start, end: start + n, fn: agg})
	}
}

// point declares one sweep point: trials seeded executions of the factory,
// aggregated by agg. Trial i runs with seed BaseSeed+i+1, exactly as the
// sequential reference runner seeds them. A trial's record is its executed
// round count and a solved bit — the raw data aggregateTrials (and, after a
// sharded merge, the replayed aggregation) condenses into a trialOutcome.
// mk runs inside each trial's task, never at declaration, so a substrate
// that only trials run on belongs behind a sync.OnceValue that mk calls:
// planning and merging, which run no trial, then build nothing.
func (s *sweep) point(trials int, mk func(seed uint64) radio.Config, agg func(trialOutcome)) {
	if trials < 0 {
		trials = 0
	}
	base := s.cfg.BaseSeed
	s.tasks(trials, func(i int) ([]float64, error) {
		res, err := runTrial(mk(base + uint64(i) + 1))
		return []float64{float64(res.Rounds), boolBit(res.Solved)}, err
	}, func(recs []taskRecord) error {
		out, err := aggregateTrials(recs)
		if err != nil {
			return err
		}
		agg(out)
		return nil
	})
}

// runTrial executes one trial of a sweep point. It is radio.Run; a test may
// swap it to see the configurations trials run on.
var runTrial = radio.Run

// finish ends an experiment's Run. build is the code that turns the
// aggregated sweep into the experiment's Result — its table, notes, series
// and verdict. Under the run lifecycle (Config.declared set) finish hands
// the sweep and build to the caller as the experiment's declaration and
// returns nothing; the caller fills and finishes it. Called directly, it
// runs this one declaration through the same steps: every task on a pool of
// cfg's workers, then aggregation and build.
func (s *sweep) finish(build func() *Result) (*Result, error) {
	d := declaration{sw: s, build: build}
	if s.cfg.declared != nil {
		*s.cfg.declared = append(*s.cfg.declared, d)
		return nil, nil
	}
	fill(s.cfg.workers(), []declaration{d}, nil)
	return d.finish()
}

// aggregate fires the aggregation closures in declaration order over the
// sweep's records, stopping at the first error. A range holding failed
// records fails as a *TrialError before its closure runs. A *TrialError has
// its indices rebased from point-local to sweep-local — and, because every
// experiment declares exactly one sweep, sweep-local is the experiment's
// task declaration index, the coordinate sharding and the run service's
// structured errors speak.
func (s *sweep) aggregate() error {
	for _, agg := range s.aggs {
		recs := s.recs[agg.start:agg.end]
		err := failedTrials(recs)
		if err == nil {
			err = agg.fn(recs)
		}
		if err != nil {
			var te *TrialError
			if errors.As(err, &te) {
				for i := range te.Failed {
					te.Failed[i] += agg.start
				}
			}
			return err
		}
	}
	return nil
}

// TrialError reports every failed trial of a sweep point, not just the first
// one observed.
type TrialError struct {
	// Failed holds the indices of the failing trials, ascending.
	Failed []int
	// Errs holds the corresponding errors, aligned with Failed.
	Errs []error
}

// Error implements error.
func (e *TrialError) Error() string {
	idx := make([]string, len(e.Failed))
	for i, f := range e.Failed {
		idx[i] = fmt.Sprint(f)
	}
	return fmt.Sprintf("trials [%s] failed: %v", strings.Join(idx, " "), e.Errs[0])
}

// Unwrap exposes the first underlying error for errors.Is/As.
func (e *TrialError) Unwrap() error { return e.Errs[0] }

// aggregateTrials condenses a point's trial records. Every failing trial is
// reported (as a *TrialError); unsolved trials are counted in Censored and
// contribute their executed round budget to the round summary as
// right-censored observations — the medians read "at least this many rounds"
// whenever Censored > 0. The input is raw per-trial data (rounds, solved
// bit), so the same function reconstructs identical summaries whether the
// records were produced in-process or merged from shard artifacts.
func aggregateTrials(recs []taskRecord) (trialOutcome, error) {
	out := trialOutcome{Trials: len(recs)}
	if err := failedTrials(recs); err != nil {
		return out, err
	}
	if len(recs) == 0 {
		return out, nil
	}
	rounds := make([]float64, len(recs))
	solved := make([]bool, len(recs))
	for i, r := range recs {
		rounds[i] = r.val(0)
		solved[i] = r.val(1) != 0
	}
	cs := stats.SummarizeCensored(rounds, solved)
	out.Solved = cs.Solved
	out.Censored = cs.Censored
	out.MedianRounds = cs.Median
	out.MeanRounds = cs.Mean
	out.P90 = cs.P90
	return out, nil
}

// failedTrials reports every failed record of a range as a *TrialError with
// range-local indices, or nil when none failed.
func failedTrials(recs []taskRecord) error {
	var te TrialError
	for i, r := range recs {
		if r.err != nil {
			te.Failed = append(te.Failed, i)
			te.Errs = append(te.Errs, fmt.Errorf("trial %d: %w", i, r.err))
		}
	}
	if len(te.Failed) == 0 {
		return nil
	}
	return &te
}

// declaration is one experiment's declared sweep plus the build step its
// Run ended with. The run lifecycle drives every caller through the same
// three steps — declare, fill the records, finish — and differs only in how
// it fills: RunAll executes every task, ExecuteShard the owned subset,
// RunMerged injects merged records. A declaration is single-use: its
// aggregation closures append rows, notes and series to the one Result build
// returns, so finishing it twice would report everything twice.
type declaration struct {
	sw    *sweep
	build func() *Result
}

// declare calls e.Run once under the lifecycle and returns the declaration
// it finished with. An experiment must declare exactly one sweep — its task
// indices are the experiment's task coordinates, the frame shard ownership,
// cache entries and structured errors all speak — so a Run that finishes
// no sweep, or more than one, fails here rather than at merge.
func declare(cfg Config, e Experiment) (declaration, error) {
	var ds []declaration
	cfg.declared = &ds
	if _, err := e.Run(cfg); err != nil {
		return declaration{}, fmt.Errorf("declare %s: %w", e.ID, err)
	}
	if len(ds) != 1 {
		return declaration{}, fmt.Errorf("declare %s: Run finished %d sweeps, want exactly one", e.ID, len(ds))
	}
	return ds[0], nil
}

// fill executes the declared tasks that own selects (nil selects all) on
// one pool of workers, so sweeps from every declaration interleave on the
// same goroutines. own sees a task's global index: its position in the
// concatenation of the declarations' task lists, which for a plan-ordered
// slice is the plan's coordinate. A zero declaration (one whose declare
// failed) contributes no tasks.
func fill(workers int, ds []declaration, own func(g int) bool) {
	var jobs []func()
	g := 0
	for _, d := range ds {
		if d.sw == nil {
			continue
		}
		for _, job := range d.sw.jobs {
			if own == nil || own(g) {
				jobs = append(jobs, job)
			}
			g++
		}
	}
	workers = min(workers, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				jobs[i]()
			}
		}()
	}
	wg.Wait()
}

// finish aggregates the declaration's filled records in declaration order
// and builds the experiment's Result.
func (d declaration) finish() (*Result, error) {
	if err := d.sw.aggregate(); err != nil {
		return nil, err
	}
	return d.build(), nil
}

// RunAll executes the given experiments through one shared worker pool sized
// by cfg (Workers, defaulting to GOMAXPROCS): every experiment is declared,
// then every trial of every sweep point of every experiment lands in the
// same work queue, so the wall clock scales with cores rather than with
// experiment count. Results and errors are returned aligned with exps, and
// each experiment's output is identical to running it alone — trials are
// independently seeded, and aggregation order is fixed by declaration order.
func RunAll(cfg Config, exps []Experiment) ([]*Result, []error) {
	cfg.duals = dualCliques{}
	ds := make([]declaration, len(exps))
	errs := make([]error, len(exps))
	for i, e := range exps {
		ds[i], errs[i] = declare(cfg, e)
	}
	fill(cfg.workers(), ds, nil)
	results := make([]*Result, len(exps))
	for i, d := range ds {
		if errs[i] == nil {
			results[i], errs[i] = d.finish()
		}
	}
	return results, errs
}

// sortedKeys returns a map's keys in ascending order, for deterministic
// iteration over named variants (adversaries, algorithms).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
