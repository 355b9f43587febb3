package runsvc

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/experiments"
	"repro/internal/shard"
)

// Options configures a Service. The zero value is usable: engine runner,
// full registry, no cache, a small in-flight bound.
type Options struct {
	// Runner drives the lifecycle phases; nil means EngineRunner.
	Runner Runner
	// Catalog is the experiment registry submissions resolve against; nil
	// means experiments.All().
	Catalog []experiments.Experiment
	// CacheDir, when non-empty, enables the content-addressed result cache
	// and, as its in-memory tier, the result memo.
	CacheDir string
	// MaxInFlight bounds concurrently executing runs (default 2).
	// Submissions beyond the bound queue; they are never rejected.
	MaxInFlight int
}

// Service owns the run lifecycle: it resolves specs, derives content-hash
// identities, deduplicates submissions, partitions plans against the result
// memo and the cache, executes deltas, and merges. One Service instance
// backs both frontends.
type Service struct {
	runner  Runner
	catalog []experiments.Experiment
	cache   *Cache
	sem     chan struct{}
	// plans memoizes task counts per experiment and configuration.
	plans *memo[planKey, int]
	// results memoizes successfully merged experiments per ExperimentKey:
	// the cache's in-memory tier, so nil (always missing) when no cache is
	// configured. A memoized result is shared by every run that serves it
	// and by concurrent renders, so a Result is read-only once finished;
	// report only reads it.
	results *memo[string, *experiments.Result]

	mu     sync.Mutex
	runs   map[string]*Run
	order  []string
	closed bool
	wg     sync.WaitGroup
}

// New builds a Service.
func New(opts Options) (*Service, error) {
	runner := opts.Runner
	if runner == nil {
		runner = EngineRunner{}
	}
	catalog := opts.Catalog
	if catalog == nil {
		catalog = experiments.All()
	}
	var (
		cache   *Cache
		results *memo[string, *experiments.Result]
	)
	if opts.CacheDir != "" {
		var err error
		if cache, err = OpenCache(opts.CacheDir); err != nil {
			return nil, fmt.Errorf("runsvc: opening cache: %w", err)
		}
		results = newMemo[string, *experiments.Result](resultMemoBytes)
	}
	inflight := opts.MaxInFlight
	if inflight < 1 {
		inflight = 2
	}
	return &Service{
		runner:  runner,
		catalog: catalog,
		cache:   cache,
		sem:     make(chan struct{}, inflight),
		plans:   newMemo[planKey, int](planMemoBytes),
		results: results,
		runs:    map[string]*Run{},
	}, nil
}

// Submit validates and normalizes the spec, computes the run's content-hash
// identity, and either returns the existing run under that identity
// (existing=true — the submission is a duplicate down to its output bytes)
// or starts a new one. Planning happens synchronously so the identity is
// known at return; plan rows are memoized per experiment and configuration.
func (s *Service) Submit(spec Spec) (run *Run, existing bool, err error) {
	rs, err := resolveSpec(spec, s.catalog)
	if err != nil {
		return nil, false, err
	}
	plan, err := s.planFor(rs)
	if err != nil {
		return nil, false, err
	}
	id := RunKey(rs.cfg, plan, rs.spec.Scenario)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, errors.New("runsvc: service is shut down")
	}
	if r, ok := s.runs[id]; ok {
		s.mu.Unlock()
		return r, true, nil
	}
	keys := make([]string, len(plan))
	statuses := make([]ExperimentStatus, len(plan))
	for i, p := range plan {
		keys[i] = ExperimentKey(rs.cfg, p)
		statuses[i] = ExperimentStatus{ID: p.ID, Tasks: p.Tasks, Key: keys[i]}
	}
	r := newRun(id, rs.spec, statuses)
	s.runs[id] = r
	s.order = append(s.order, id)
	s.wg.Add(1)
	s.mu.Unlock()

	go s.execute(r, rs, plan, keys)
	return r, false, nil
}

// planFor returns the selection's task plan. Rows come from the plan memo;
// the Runner plans only the experiments it lacks. That is sound because an
// experiment's row counts its own declaration alone, whatever else is
// selected, and a scenario experiment's ID embeds its spec's hash. Planning
// runs each missing experiment's declaration code, which builds the sweep
// networks.
func (s *Service) planFor(rs resolved) ([]shard.ExperimentPlan, error) {
	plan := make([]shard.ExperimentPlan, len(rs.exps))
	var missing []int
	for i, e := range rs.exps {
		tasks, ok := s.plans.get(planKeyOf(rs.cfg, e.ID))
		if !ok {
			missing = append(missing, i)
			continue
		}
		plan[i] = shard.ExperimentPlan{ID: e.ID, Tasks: tasks}
	}
	if len(missing) == 0 {
		return plan, nil
	}
	rows, err := s.runner.Plan(rs.cfg, pick(rs.exps, missing))
	if err != nil {
		return nil, fmt.Errorf("runsvc: planning: %w", err)
	}
	for k, i := range missing {
		plan[i] = rows[k]
		s.plans.put(planKeyOf(rs.cfg, rows[k].ID), rows[k].Tasks, len(rows[k].ID)+planRowOverhead)
	}
	return plan, nil
}

// execute drives one run through the lifecycle on its own goroutine,
// bounded by the in-flight semaphore. keys holds each plan row's
// ExperimentKey.
func (s *Service) execute(r *Run, rs resolved, plan []shard.ExperimentPlan, keys []string) {
	defer s.wg.Done()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	total := 0
	for _, p := range plan {
		total += p.Tasks
	}
	r.post(StatePlanning, fmt.Sprintf("plan: %d experiments, %d tasks", len(plan), total))

	// Partition the plan: a result for every memo hit, records for every
	// cache hit, and the experiment delta for everything else. Memo hits
	// are done; cache hits and the delta are merged.
	results := make([]*experiments.Result, len(plan))
	var (
		merge       []int // plan indices to merge
		missing     []int // plan indices to execute
		records     []shard.TaskRecord
		cachedTasks int
	)
	for i, p := range plan {
		if res, ok := s.results.get(keys[i]); ok {
			results[i] = res
			r.setSource(p.ID, "cache")
			cachedTasks += p.Tasks
			continue
		}
		merge = append(merge, i)
		if recs, ok := s.cache.Get(keys[i], rs.cfg, p); ok {
			records = append(records, recs...)
			r.setSource(p.ID, "cache")
			cachedTasks += len(recs)
			continue
		}
		missing = append(missing, i)
	}
	r.addCached(cachedTasks)
	r.post(StateExecuting, fmt.Sprintf("cache: %d of %d tasks served; executing %d experiments", cachedTasks, total, len(missing)))

	if len(missing) > 0 {
		art, err := s.runner.Execute(rs.cfg, pick(rs.exps, missing), 1, 1)
		if err != nil {
			r.finish(nil, fmt.Errorf("runsvc: executing: %w", err))
			return
		}
		byExp := make(map[string][]shard.TaskRecord, len(missing))
		for _, rec := range art.Records {
			byExp[rec.Exp] = append(byExp[rec.Exp], rec)
		}
		for _, i := range missing {
			p := plan[i]
			if err := s.cache.Put(keys[i], rs.cfg, p, byExp[p.ID]); err != nil {
				// A failed write degrades the next run to a cold one; this
				// run's records are already in hand.
				r.post("", fmt.Sprintf("cache write failed for %s: %v", p.ID, err))
			}
			r.setSource(p.ID, "executed")
		}
		r.addExecuted(len(art.Records))
		records = append(records, art.Records...)
	}

	if len(merge) > 0 {
		// Reassemble cached and fresh records into one validated merge —
		// the same validation shard files get — and replay aggregation.
		m, err := shard.NewMerged(rs.cfg.BaseSeed, rs.cfg.Quick, rs.cfg.EffectiveTrials(), pick(plan, merge), records)
		if err != nil {
			r.finish(nil, fmt.Errorf("runsvc: reassembling records: %w", err))
			return
		}
		merged, mergeErrs := s.runner.Merge(rs.cfg, pick(rs.exps, merge), m)
		errs := make([]error, len(plan))
		for k, i := range merge {
			if errs[i] = mergeErrs[k]; errs[i] == nil {
				results[i] = merged[k]
				s.results.put(keys[i], merged[k], resultBytes(merged[k]))
			}
		}
		if rerr := newRunError(rs.exps, errs); rerr != nil {
			r.finish(nil, rerr)
			return
		}
	}
	r.finish(results, nil)
}

// pick returns xs at the given indices, in order.
func pick[T any](xs []T, at []int) []T {
	out := make([]T, len(at))
	for k, i := range at {
		out[k] = xs[i]
	}
	return out
}

// Get returns the run with the given identity.
func (s *Service) Get(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

// Runs snapshots every run in submission order.
func (s *Service) Runs() []RunStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	runs := make([]*Run, len(ids))
	for i, id := range ids {
		runs[i] = s.runs[id]
	}
	s.mu.Unlock()
	out := make([]RunStatus, len(runs))
	for i, r := range runs {
		out[i] = r.Status()
	}
	return out
}

// RunSync submits and waits: the in-process frontend's path. The returned
// error is the submission or run failure; results come from run.Results.
func (s *Service) RunSync(spec Spec) (*Run, error) {
	r, _, err := s.Submit(spec)
	if err != nil {
		return nil, err
	}
	<-r.Done()
	return r, r.Err()
}

// Close stops accepting submissions and waits for in-flight runs to reach
// terminal states.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
}
