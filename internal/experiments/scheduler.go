package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/radio"
	"repro/internal/stats"
)

// workerPool is a bounded pool of goroutines executing opaque jobs. One pool
// serves every (experiment × sweep-point × trial) triple submitted to it:
// sweeps from different experiments interleave on the same workers instead of
// each sweep point spawning (and draining) its own goroutines.
type workerPool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

// newWorkerPool starts a pool with the given number of workers (minimum 1).
func newWorkerPool(workers int) *workerPool {
	if workers < 1 {
		workers = 1
	}
	p := &workerPool{jobs: make(chan func())}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// submit hands a job to the pool, blocking until a worker accepts it. Jobs
// must never submit to their own pool (the workers would deadlock); only
// sweep declarers do.
func (p *workerPool) submit(job func()) { p.jobs <- job }

// close drains the pool: no further submits are allowed, and close returns
// once every accepted job has finished.
func (p *workerPool) close() {
	close(p.jobs)
	p.wg.Wait()
}

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
// aggregation closure per point, then call run once: every task of every
// point is flattened onto one worker pool, each task writes exactly one
// taskRecord, and after the pool drains the aggregation closures fire in
// declaration order over their record ranges. Each task's index fully
// determines its execution (seeds are derived from it), so the output is
// byte-identical no matter how many workers run, in which order tasks
// complete — or, for sharded runs, which machine ran which task.
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
func (s *sweep) point(trials int, mk func(seed uint64) radio.Config, agg func(trialOutcome)) {
	if trials < 0 {
		trials = 0
	}
	base := s.cfg.BaseSeed
	s.tasks(trials, func(i int) ([]float64, error) {
		res, err := radio.Run(mk(base + uint64(i) + 1))
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

// run executes the declared sweep. In an unsharded run every job executes on
// the configured pool — the shared cross-experiment pool when one is set
// (RunAll), otherwise a pool created for this sweep — and the aggregation
// closures then fire in declaration order, stopping at the first error. In
// a sharded run (Config.shard set) the installed phase takes over: plan
// counts the tasks, execute runs only the owned subset and captures their
// records, merge injects records loaded from artifacts and replays the
// aggregations. See shard.go.
func (s *sweep) run() error {
	if s.cfg.shard != nil {
		return s.cfg.shard.runSweep(s)
	}
	pool := s.cfg.pool
	if pool == nil {
		workers := s.cfg.workers()
		if workers > len(s.jobs) {
			workers = len(s.jobs)
		}
		pool = newWorkerPool(workers)
		defer pool.close()
	}
	var wg sync.WaitGroup
	wg.Add(len(s.jobs))
	for _, job := range s.jobs {
		pool.submit(func() {
			defer wg.Done()
			job()
		})
	}
	wg.Wait()
	return s.aggregate()
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

// RunAll executes the given experiments through one shared worker pool sized
// by cfg (Workers, defaulting to GOMAXPROCS): every trial of every sweep
// point of every experiment lands in the same work queue, so the wall clock
// scales with cores rather than with experiment count. Results and errors are
// returned aligned with exps, and each experiment's output is identical to
// running it alone — trials are independently seeded, and aggregation order
// is fixed by declaration order.
func RunAll(cfg Config, exps []Experiment) ([]*Result, []error) {
	pool := newWorkerPool(cfg.workers())
	defer pool.close()
	cfg.pool = pool
	results := make([]*Result, len(exps))
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = e.Run(withExp(cfg, e))
		}()
	}
	wg.Wait()
	return results, errs
}

// withExp stamps the experiment's identity into its config copy, so sharded
// phases can attribute declared tasks to the experiment that owns them.
func withExp(cfg Config, e Experiment) Config {
	cfg.expID = e.ID
	return cfg
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
