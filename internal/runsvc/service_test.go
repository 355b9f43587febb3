package runsvc

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/shard"
)

// countingRunner wraps the engine and counts what actually executes — the
// cache assertions in this file are statements about executed-task counters,
// never about timing. It can also stamp failures onto executed records, to
// drive the structured-error path through the real merge replay.
type countingRunner struct {
	mu        sync.Mutex
	execCalls int
	executed  int
	// planned and merged list the experiment IDs handed to Plan and Merge,
	// in call order.
	planned []string
	merged  []string
	// fail maps experiment ID → per-experiment task indices whose records
	// get an injected error before they reach the cache and the merge.
	fail map[string][]int
}

func (c *countingRunner) Plan(cfg experiments.Config, exps []experiments.Experiment) ([]shard.ExperimentPlan, error) {
	c.mu.Lock()
	for _, e := range exps {
		c.planned = append(c.planned, e.ID)
	}
	c.mu.Unlock()
	return experiments.PlanTasks(cfg, exps)
}

func (c *countingRunner) Execute(cfg experiments.Config, exps []experiments.Experiment, index, count int) (*shard.Artifact, error) {
	art, err := experiments.ExecuteShard(cfg, exps, index, count)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.execCalls++
	c.executed += len(art.Records)
	for i, rec := range art.Records {
		for _, idx := range c.fail[rec.Exp] {
			if rec.Index == idx {
				art.Records[i].Err = "injected fault"
			}
		}
	}
	c.mu.Unlock()
	return art, nil
}

func (c *countingRunner) Merge(cfg experiments.Config, exps []experiments.Experiment, m *shard.Merged) ([]*experiments.Result, []error) {
	c.mu.Lock()
	for _, e := range exps {
		c.merged = append(c.merged, e.ID)
	}
	c.mu.Unlock()
	return experiments.RunMerged(cfg, exps, m)
}

// calls snapshots the experiment IDs planned and merged so far.
func (c *countingRunner) calls() (planned, merged []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.planned...), append([]string(nil), c.merged...)
}

func (c *countingRunner) stats() (execCalls, executed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.execCalls, c.executed
}

// testSpec selects two sub-10ms experiments so the service tests run the
// real engine end to end without owning the test budget.
func testSpec() Spec {
	return Spec{Experiments: []string{"CHURN-broadcast", "L3.2-hitting"}, Trials: 2}
}

func newTestService(t *testing.T, cacheDir string) (*Service, *countingRunner) {
	t.Helper()
	runner := &countingRunner{}
	svc, err := New(Options{Runner: runner, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, runner
}

// renderAll renders the full report the same way both frontends do.
func renderAll(t *testing.T, results []*experiments.Result, opts report.Options) string {
	t.Helper()
	var buf bytes.Buffer
	// The deviation error only reflects FAIL verdicts already in the bytes.
	_ = report.Render(&buf, results, opts)
	return buf.String()
}

func planTotal(st RunStatus) int {
	total := 0
	for _, e := range st.Experiments {
		total += e.Tasks
	}
	return total
}

// TestServiceColdRepeatAndCacheReload is the tentpole invariant end to end:
// a cold run executes the full plan; resubmitting to the same service
// returns the same run without touching the engine; a fresh service over the
// same cache directory serves the whole run from cache, executing zero
// tasks; and every path produces byte-identical rendered output.
func TestServiceColdRepeatAndCacheReload(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	dir := t.TempDir()
	svc, runner := newTestService(t, dir)

	run, existing, err := svc.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Fatal("first submission reported existing")
	}
	<-run.Done()
	if run.State() != StateMerged {
		t.Fatalf("run state %s: %v", run.State(), run.Err())
	}
	st := run.Status()
	total := planTotal(st)
	if total == 0 {
		t.Fatal("plan counted zero tasks")
	}
	if run.ExecutedTasks() != total || run.CachedTasks() != 0 {
		t.Fatalf("cold run: executed %d, cached %d, want %d executed",
			run.ExecutedTasks(), run.CachedTasks(), total)
	}
	for _, e := range st.Experiments {
		if e.Source != "executed" {
			t.Errorf("cold run: experiment %s source %q, want executed", e.ID, e.Source)
		}
	}

	// Byte identity against the engine's own shared-pool runner.
	matchesDirect(t, svc, testSpec(), run)

	// Repeat submission: same identity, same run, engine untouched.
	again, existing, err := svc.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !existing || again != run {
		t.Fatal("repeat submission did not dedupe to the existing run")
	}
	// Workers changes wall clock only, so it dedupes too.
	withWorkers := testSpec()
	withWorkers.Workers = 1
	again, existing, err = svc.Submit(withWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if !existing || again != run {
		t.Fatal("workers-only variation did not dedupe to the existing run")
	}
	if calls, _ := runner.stats(); calls != 1 {
		t.Fatalf("engine executed %d times across three submissions, want 1", calls)
	}

	// Fresh service, same cache directory: zero executed tasks, and the
	// rendered result is still byte-identical to the cold run's.
	svc2, runner2 := newTestService(t, dir)
	run2, err := svc2.RunSync(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if run2.ExecutedTasks() != 0 || run2.CachedTasks() != total {
		t.Fatalf("cache reload: executed %d, cached %d, want 0 executed / %d cached",
			run2.ExecutedTasks(), run2.CachedTasks(), total)
	}
	if calls, executed := runner2.stats(); calls != 0 || executed != 0 {
		t.Fatalf("cache reload touched the engine: %d calls, %d tasks", calls, executed)
	}
	matchesDirect(t, svc2, testSpec(), run2)
}

// TestServiceRunCallsPerLifecycle counts each selected experiment's Run
// calls through a wrapping catalog: one declaration per lifecycle call, so
// a cold run declares three times (submit-time plan, execute, merge) and a
// fresh service over the warm cache twice (plan, merge). In the same
// service, a selection that overlaps an earlier one declares the
// overlapping experiments no more: the memos serve their plan rows and
// results.
func TestServiceRunCallsPerLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	var mu sync.Mutex
	calls := map[string]int{}
	var catalog []experiments.Experiment
	for _, e := range experiments.All() {
		run := e.Run
		e.Run = func(cfg experiments.Config) (*experiments.Result, error) {
			mu.Lock()
			calls[e.ID]++
			mu.Unlock()
			return run(cfg)
		}
		catalog = append(catalog, e)
	}
	dir := t.TempDir()
	overlap := Spec{Experiments: []string{"CHURN-broadcast", "CHURN-gossip"}, Trials: 2}
	var svc *Service
	for _, tc := range []struct {
		name string
		// fresh starts a new service over the same cache directory.
		fresh bool
		spec  Spec
		want  map[string]int
	}{
		{"cold", true, testSpec(), map[string]int{"CHURN-broadcast": 3, "L3.2-hitting": 3}},
		{"warm", true, testSpec(), map[string]int{"CHURN-broadcast": 2, "L3.2-hitting": 2}},
		{"overlap", false, overlap, map[string]int{"CHURN-broadcast": 0, "CHURN-gossip": 3}},
	} {
		if tc.fresh {
			var err error
			if svc, err = New(Options{Catalog: catalog, CacheDir: dir}); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(svc.Close)
		}
		if _, err := svc.RunSync(tc.spec); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for id, want := range tc.want {
			if calls[id] != want {
				t.Errorf("%s run called %s's Run %d times, want %d", tc.name, id, calls[id], want)
			}
		}
		clear(calls)
		mu.Unlock()
	}
}

// TestServiceDeltaExecution: an overlapping submission reuses cached
// experiments and executes only the delta.
func TestServiceDeltaExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	svc, runner := newTestService(t, t.TempDir())

	small := Spec{Experiments: []string{"CHURN-broadcast"}, Trials: 2}
	run1, err := svc.RunSync(small)
	if err != nil {
		t.Fatal(err)
	}
	churnTasks := run1.ExecutedTasks()
	if churnTasks == 0 {
		t.Fatal("first run executed zero tasks")
	}

	run2, err := svc.RunSync(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	total := planTotal(run2.Status())
	if run2.CachedTasks() != churnTasks {
		t.Errorf("overlap run cached %d tasks, want %d (CHURN-broadcast's)", run2.CachedTasks(), churnTasks)
	}
	if run2.ExecutedTasks() != total-churnTasks {
		t.Errorf("overlap run executed %d tasks, want only the %d-task delta", run2.ExecutedTasks(), total-churnTasks)
	}
	for _, e := range run2.Status().Experiments {
		want := "executed"
		if e.ID == "CHURN-broadcast" {
			want = "cache"
		}
		if e.Source != want {
			t.Errorf("experiment %s source %q, want %q", e.ID, e.Source, want)
		}
	}
	if _, executed := runner.stats(); executed != total {
		t.Errorf("engine executed %d tasks across both runs, want %d (no re-execution)", executed, total)
	}

	// The stitched (memo + delta) result is byte-identical to a cold run.
	matchesDirect(t, svc, testSpec(), run2)

	// A selection of experiments this service has already merged is a
	// lookup: nothing is planned, executed or merged, and the memoized
	// results render the same bytes as a direct run.
	planned, merged := runner.calls()
	execCalls, _ := runner.stats()
	memoSpec := Spec{Experiments: []string{"L3.2-hitting"}, Trials: 2}
	run3, err := svc.RunSync(memoSpec)
	if err != nil {
		t.Fatal(err)
	}
	if run3.ExecutedTasks() != 0 || run3.CachedTasks() != planTotal(run3.Status()) {
		t.Errorf("memo-served run executed %d and cached %d tasks, want 0 and %d",
			run3.ExecutedTasks(), run3.CachedTasks(), planTotal(run3.Status()))
	}
	planned3, merged3 := runner.calls()
	execCalls3, _ := runner.stats()
	if len(planned3) != len(planned) || len(merged3) != len(merged) || execCalls3 != execCalls {
		t.Errorf("memo-served run planned %v, merged %v and executed %d times, want nothing",
			planned3[len(planned):], merged3[len(merged):], execCalls3-execCalls)
	}
	matchesDirect(t, svc, memoSpec, run3)
}

// matchesDirect checks that the run renders the same bytes as
// experiments.RunAll over the spec's selection, in every format.
func matchesDirect(t *testing.T, svc *Service, spec Spec, run *Run) {
	t.Helper()
	results, err := run.Results()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := resolveSpec(spec, svc.catalog)
	if err != nil {
		t.Fatal(err)
	}
	direct, errs := experiments.RunAll(rs.cfg, rs.exps)
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	for _, opts := range []report.Options{{Markdown: true}, {CSV: true}, {}} {
		if got, want := renderAll(t, results, opts), renderAll(t, direct, opts); got != want {
			t.Fatalf("service output diverges from a direct run (opts %+v):\n--- service:\n%s\n--- direct:\n%s", opts, got, want)
		}
	}
}

// TestServiceConcurrentOverlaps submits every overlapping selection of three
// experiments from its own goroutine, each reading the catalog first, so
// the plan and result memos are shared by concurrent submissions, runs and
// catalog reads; CI runs it under -race. Every run merges, and an
// experiment renders the same bytes whichever run served it.
func TestServiceConcurrentOverlaps(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	ids := []string{"CHURN-broadcast", "CHURN-gossip", "L3.2-hitting"}
	var catalog []experiments.Experiment
	for _, id := range ids {
		e, _ := experiments.ByID(id)
		catalog = append(catalog, e)
	}
	svc, err := New(Options{Catalog: catalog, CacheDir: t.TempDir(), MaxInFlight: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	runs := make([]*Run, 1<<len(ids)-1)
	var wg sync.WaitGroup
	for i := range runs {
		spec := Spec{Trials: 2}
		for k, id := range ids {
			if (i+1)&(1<<k) != 0 {
				spec.Experiments = append(spec.Experiments, id)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.CatalogEntries(false, 2); err != nil {
				t.Error(err)
				return
			}
			r, _, err := svc.Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			runs[i] = r
		}()
	}
	wg.Wait()

	sections := map[string]string{}
	for _, r := range runs {
		if r == nil {
			continue // its submission already failed the test
		}
		<-r.Done()
		results, err := r.Results()
		if err != nil {
			t.Fatalf("run %v: %v", r.Spec().Experiments, err)
		}
		for _, res := range results {
			var b bytes.Buffer
			report.Result(&b, res, report.Options{Markdown: true})
			if prev, ok := sections[res.ID]; ok && prev != b.String() {
				t.Errorf("%s renders differently across runs:\n%s\nvs\n%s", res.ID, prev, b.String())
			}
			sections[res.ID] = b.String()
		}
	}
}

// TestServiceStructuredErrors drives a partial failure through the real
// merge replay and asserts the run keeps full context: which experiment
// failed, at which per-experiment task indices — not just the first error
// string observed.
func TestServiceStructuredErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	runner := &countingRunner{fail: map[string][]int{"CHURN-broadcast": {2}}}
	svc, err := New(Options{Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	run, err := svc.RunSync(testSpec())
	if err == nil {
		t.Fatal("run with injected fault reported success")
	}
	if run.State() != StateFailed {
		t.Fatalf("run state %s, want failed", run.State())
	}
	var rerr *RunError
	if !errors.As(err, &rerr) {
		t.Fatalf("run error %T is not a *RunError: %v", err, err)
	}
	if len(rerr.Experiments) != 1 {
		t.Fatalf("structured error names %d experiments, want 1: %v", len(rerr.Experiments), rerr)
	}
	ee := rerr.Experiments[0]
	if ee.ID != "CHURN-broadcast" {
		t.Errorf("failed experiment %s, want CHURN-broadcast", ee.ID)
	}
	if !reflect.DeepEqual(ee.Tasks, []int{2}) {
		t.Errorf("failed task indices %v, want [2] (per-experiment frame)", ee.Tasks)
	}
	if !strings.Contains(ee.Err.Error(), "injected fault") {
		t.Errorf("experiment error lost the cause: %v", ee.Err)
	}

	// The status surface carries the same structure.
	var failedStatus *ExperimentStatus
	for i, e := range run.Status().Experiments {
		if e.ID == "CHURN-broadcast" {
			failedStatus = &run.Status().Experiments[i]
		} else if e.Error != "" {
			t.Errorf("healthy experiment %s carries error %q", e.ID, e.Error)
		}
	}
	if failedStatus == nil || !reflect.DeepEqual(failedStatus.FailedTasks, []int{2}) || failedStatus.Error == "" {
		t.Errorf("status lacks structured failure: %+v", failedStatus)
	}
	if _, err := run.Results(); err == nil {
		t.Error("failed run served results")
	}
}

// TestServiceFailuresNotMemoized: a failed experiment never enters the
// result memo. With a cache, a second overlapping run in the same service
// re-merges the failing experiment from its cached records and fails with
// the same structured error, while its healthy sibling is served from the
// memo.
func TestServiceFailuresNotMemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	runner := &countingRunner{fail: map[string][]int{"CHURN-broadcast": {2}}}
	svc, err := New(Options{Runner: runner, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	_, err = svc.RunSync(testSpec())
	var first *RunError
	if !errors.As(err, &first) {
		t.Fatalf("run with injected fault: %v, want a *RunError", err)
	}
	_, merged := runner.calls()

	run, err := svc.RunSync(Spec{Experiments: []string{"CHURN-broadcast", "CHURN-gossip", "L3.2-hitting"}, Trials: 2})
	var second *RunError
	if !errors.As(err, &second) {
		t.Fatalf("overlapping run: %v, want a *RunError", err)
	}
	if second.Error() != first.Error() || len(second.Experiments) != 1 ||
		!reflect.DeepEqual(second.Experiments[0].Tasks, first.Experiments[0].Tasks) {
		t.Errorf("overlapping run failed with %v, want the first run's %v", second, first)
	}
	if _, merged2 := runner.calls(); !reflect.DeepEqual(merged2[len(merged):], []string{"CHURN-broadcast", "CHURN-gossip"}) {
		t.Errorf("overlapping run merged %v, want the failing experiment again and the new one", merged2[len(merged):])
	}
	want := map[string]string{"CHURN-broadcast": "cache", "CHURN-gossip": "executed", "L3.2-hitting": "cache"}
	for _, e := range run.Status().Experiments {
		if e.Source != want[e.ID] {
			t.Errorf("experiment %s source %q, want %q", e.ID, e.Source, want[e.ID])
		}
	}
}

// TestServiceScenarioSubmission: a serialized churn scenario round-trips
// into a runnable experiment with a content-derived identity, and a distinct
// scenario gets a distinct run.
func TestServiceScenarioSubmission(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	svc, _ := newTestService(t, "")
	spec := Spec{
		Trials:   2,
		Scenario: &ScenarioSpec{Side: 3, Seed: 5, Gen: scenario.GenConfig{Epochs: 1, EpochLen: 8, Leaves: 1}},
	}
	run, err := svc.RunSync(spec)
	if err != nil {
		t.Fatal(err)
	}
	results, err := run.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !strings.HasPrefix(results[0].ID, "CUSTOM-churn-") {
		t.Fatalf("scenario run produced %+v", results)
	}
	if rows := results[0].Table.String(); !strings.Contains(rows, "static") || !strings.Contains(rows, "churn") {
		t.Errorf("scenario table lacks static/churn rows:\n%s", rows)
	}

	other := spec
	gen := other.Scenario.Gen
	gen.Leaves = 2
	other.Scenario = &ScenarioSpec{Side: 3, Seed: 5, Gen: gen}
	run2, existing, err := svc.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if existing || run2.ID() == run.ID() {
		t.Error("distinct scenarios share a run identity")
	}
	<-run2.Done()
}

// TestServicePlanMemoization: plan rows are memoized per experiment and
// configuration. Repeating a selection, even at another seed, or submitting
// a subset of it plans nothing; an overlapping selection plans only its new
// experiments. With no cache directory there is no result memo, so every
// run still executes all its tasks.
func TestServicePlanMemoization(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	svc, runner := newTestService(t, "")
	seeded := testSpec()
	seeded.Seed = 99
	subset := Spec{Experiments: []string{"L3.2-hitting"}, Trials: 2}
	for _, spec := range []Spec{testSpec(), seeded, subset} {
		if _, err := svc.RunSync(spec); err != nil {
			t.Fatal(err)
		}
	}
	planned, _ := runner.calls()
	if !reflect.DeepEqual(planned, testSpec().Experiments) {
		t.Fatalf("planned %v across a selection, its reseeded repeat and a subset, want %v once",
			planned, testSpec().Experiments)
	}

	run, err := svc.RunSync(Spec{Experiments: []string{"CHURN-broadcast", "CHURN-gossip"}, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if planned, _ := runner.calls(); !reflect.DeepEqual(planned[2:], []string{"CHURN-gossip"}) {
		t.Errorf("overlapping selection planned %v, want only its new experiment", planned[2:])
	}
	if total := planTotal(run.Status()); run.ExecutedTasks() != total || run.CachedTasks() != 0 {
		t.Errorf("uncached overlap executed %d and cached %d tasks, want %d and 0", run.ExecutedTasks(), run.CachedTasks(), total)
	}
}

// TestCacheRejectsMismatches: an entry only serves the exact configuration
// it was written under.
func TestCacheRejectsMismatches(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Quick: true, Trials: 2, BaseSeed: 3}
	p := shard.ExperimentPlan{ID: "X", Tasks: 2}
	recs := []shard.TaskRecord{
		{Exp: "X", Index: 0, Vals: []float64{1, 1}},
		{Exp: "X", Index: 1, Vals: []float64{2, 1}},
	}
	key := ExperimentKey(cfg, p)
	if err := cache.Put(key, cfg, p, recs); err != nil {
		t.Fatal(err)
	}
	if got, ok := cache.Get(key, cfg, p); !ok || len(got) != 2 {
		t.Fatalf("round trip failed: %v %v", got, ok)
	}
	other := cfg
	other.BaseSeed = 4
	if _, ok := cache.Get(key, other, p); ok {
		t.Error("entry served under a different seed")
	}
	if _, ok := cache.Get(key, cfg, shard.ExperimentPlan{ID: "X", Tasks: 3}); ok {
		t.Error("entry served under a different plan row")
	}
	if _, ok := cache.Get("absent", cfg, p); ok {
		t.Error("missing entry served")
	}
	// Incomplete records must fail Put's tiling validation, not poison the
	// cache for a later Get.
	if err := cache.Put("partial", cfg, p, recs[:1]); err == nil {
		if _, ok := cache.Get("partial", cfg, p); ok {
			t.Error("partial entry served as complete")
		}
	}
	// A nil cache is a valid always-miss cache.
	var nilCache *Cache
	if _, ok := nilCache.Get(key, cfg, p); ok {
		t.Error("nil cache claimed a hit")
	}
	if err := nilCache.Put(key, cfg, p, recs); err != nil {
		t.Errorf("nil cache Put errored: %v", err)
	}
}

// TestCacheCorruptTaskCountIsMiss: a cache entry whose plan row claims an
// absurd task count — a corrupt or hand-edited file — is a miss, as Get
// documents, not a panic on the goroutine reading it. Through a service,
// the run re-executes that experiment and still merges.
func TestCacheCorruptTaskCountIsMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	dir := t.TempDir()
	svc, _ := newTestService(t, dir)
	run, err := svc.RunSync(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := run.Status()
	victim := st.Experiments[0]
	path := filepath.Join(dir, victim.Key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	row := fmt.Sprintf(`"tasks": %d`, victim.Tasks)
	corrupt := bytes.Replace(data, []byte(row), []byte(`"tasks": 900000000000000`), 1)
	if bytes.Equal(corrupt, data) {
		t.Fatalf("cache entry %s has no plan row %s", path, row)
	}
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := resolveSpec(testSpec(), svc.catalog)
	if err != nil {
		t.Fatal(err)
	}
	p := shard.ExperimentPlan{ID: victim.ID, Tasks: victim.Tasks}
	if _, ok := cache.Get(victim.Key, rs.cfg, p); ok {
		t.Fatal("corrupt entry served as a hit")
	}

	svc2, _ := newTestService(t, dir)
	run2, err := svc2.RunSync(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if run2.ExecutedTasks() != victim.Tasks || run2.CachedTasks() != planTotal(st)-victim.Tasks {
		t.Errorf("run over the corrupt entry executed %d and cached %d tasks, want %d and %d",
			run2.ExecutedTasks(), run2.CachedTasks(), victim.Tasks, planTotal(st)-victim.Tasks)
	}
}

// TestNewRunErrorStructure: the merge phase's aligned error slice becomes a
// structured RunError, TrialError indices surfacing as per-experiment task
// coordinates.
func TestNewRunErrorStructure(t *testing.T) {
	exps := []experiments.Experiment{{ID: "A"}, {ID: "B"}, {ID: "C"}}
	te := &experiments.TrialError{Failed: []int{2, 5}, Errs: []error{errors.New("boom"), errors.New("boom")}}
	rerr := newRunError(exps, []error{nil, te, errors.New("plain failure")})
	if rerr == nil || len(rerr.Experiments) != 2 {
		t.Fatalf("rerr = %+v, want 2 experiment errors", rerr)
	}
	if rerr.Experiments[0].ID != "B" || !reflect.DeepEqual(rerr.Experiments[0].Tasks, []int{2, 5}) {
		t.Errorf("TrialError not structured: %+v", rerr.Experiments[0])
	}
	if rerr.Experiments[1].ID != "C" || rerr.Experiments[1].Tasks != nil {
		t.Errorf("plain error mis-structured: %+v", rerr.Experiments[1])
	}
	if !errors.Is(rerr, te) {
		t.Error("RunError does not unwrap to the underlying TrialError")
	}
	if msg := rerr.Error(); !strings.Contains(msg, "B (tasks [2 5])") || !strings.Contains(msg, "C:") {
		t.Errorf("message lost structure: %q", msg)
	}
	if newRunError(exps, []error{nil, nil, nil}) != nil {
		t.Error("all-nil errors produced a RunError")
	}
}

// TestRunEventLog: the state machine's event log is sequenced and walks the
// lifecycle in order.
func TestRunEventLog(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	svc, _ := newTestService(t, "")
	run, err := svc.RunSync(Spec{Experiments: []string{"L3.2-hitting"}, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	events := run.Status().Events
	var states []State
	for i, e := range events {
		if e.Seq != i {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		if len(states) == 0 || states[len(states)-1] != e.State {
			states = append(states, e.State)
		}
	}
	want := []State{StateSubmitted, StatePlanning, StateExecuting, StateMerged}
	if !reflect.DeepEqual(states, want) {
		t.Errorf("lifecycle states %v, want %v", states, want)
	}
}
