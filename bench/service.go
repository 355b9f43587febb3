package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/runsvc"
	"repro/internal/shard"
)

// selection resolves experiment IDs against the registry.
func selection(ids []string) ([]experiments.Experiment, error) {
	exps := make([]experiments.Experiment, len(ids))
	for i, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("experiment %s is not registered", id)
		}
		exps[i] = e
	}
	return exps, nil
}

// registrySpec is what a registry-cold request runs.
type registrySpec struct {
	ids []string
	// seeds is how many base seeds the requests of a run cycle through.
	// Request i runs at base seed seed·seeds + i mod seeds, so a run covers
	// several seeds, and request i checks its output against request
	// i − seeds.
	seeds int
}

// coldSpec is registry-cold: the light experiments at the quick default.
var coldSpec = registrySpec{ids: lightIDs, seeds: 8}

// registryCold sends the selection cold, request after request: each one
// gets a fresh runsvc.Service over a fresh, empty cache directory, which is
// what `dgbench -all -cache DIR` does on a first run. The load is the
// engine's small-n paths, the adversaries, the scheduler pool and the cache
// writes.
type registryCold struct {
	c    *config
	exps []experiments.Experiment
	spec registrySpec

	// want is the markdown digest of each seed's first request.
	want  []string
	store storeStats
	first runsvc.RunStatus
}

func newRegistryCold(c *config, sp int, spec registrySpec) (*registryCold, error) {
	exps, err := selection(spec.ids)
	if err != nil {
		return nil, err
	}
	// Planning fills the process-wide memos (substrates, decompositions) a
	// long-running frontend would already hold.
	plan := c.tr.begin("runsvc.catalog", sp, -1)
	_, err = runsvc.Catalog(experiments.Config{Quick: true}, exps)
	c.tr.end(plan)
	if err != nil {
		return nil, err
	}
	return &registryCold{c: c, exps: exps, spec: spec, want: make([]string, spec.seeds)}, nil
}

func (r *registryCold) request(i int, tr *tracer) (sample, error) {
	dir := filepath.Join(r.c.work, fmt.Sprintf("cold-%d", i))
	defer os.RemoveAll(dir)
	slot := i % r.spec.seeds
	spec := runsvc.Spec{Experiments: r.spec.ids, Seed: r.c.seed*uint64(r.spec.seeds) + uint64(slot)}

	req := tr.begin("request", -1, i)
	start, cpu0 := time.Now(), cpuTime()
	opts := runsvc.Options{CacheDir: dir}
	tm := &timedRunner{tr: tr, req: i}
	if tr != nil {
		opts.Runner, opts.Catalog = tm, tm.wrap(r.exps)
	}
	svc, err := runsvc.New(opts)
	if err != nil {
		return sample{}, err
	}
	rs := tr.begin("runsvc.request", req, i)
	tm.parent = rs
	run, err := svc.RunSync(spec)
	tr.end(rs)
	svc.Close()
	smp := sample{latency: time.Since(start), cpu: cpuTime() - cpu0}
	tr.end(req)
	if err != nil {
		return smp, err
	}

	chk := tr.begin("check", -1, i)
	defer tr.end(chk)
	st := run.Status()
	if i == 0 {
		r.first = st
	}
	cfg, plan := statusPlan(st)
	if st.CachedTasks != 0 || st.ExecutedTasks != tasks(plan) {
		return smp, fmt.Errorf("cold run served %d tasks from cache and executed %d, want 0 and %d", st.CachedTasks, st.ExecutedTasks, tasks(plan))
	}
	results, err := run.Results()
	if err != nil {
		return smp, err
	}
	md, err := r.store.render(tr, chk, i, results)
	if err != nil {
		return smp, err
	}
	sum := sha256.Sum256(md)
	if d := hex.EncodeToString(sum[:]); r.want[slot] == "" {
		r.want[slot] = d
	} else if d != r.want[slot] {
		return smp, fmt.Errorf("markdown digest %s at seed %d differs from request %d's %s", d, spec.Seed, slot, r.want[slot])
	}
	recs, err := r.store.reload(tr, chk, i, cfg, dir, plan)
	if err != nil {
		return smp, err
	}
	if err := r.store.rewrite(tr, chk, i, cfg, dir, filepath.Join(r.c.work, fmt.Sprintf("put-%d", i)), plan, recs); err != nil {
		return smp, err
	}
	if err := r.store.roundTrip(tr, chk, i, cfg, filepath.Join(r.c.work, fmt.Sprintf("merged-%d.json", i)), plan, recs); err != nil {
		return smp, err
	}
	return smp, nil
}

func (r *registryCold) layers(s spanSet, got map[string]float64) {
	runsvcLayers(s, got)
	execute := s.total("runsvc.execute") - replanTotal(s)
	byID := execTotals(s)
	for _, id := range lightIDs {
		got["experiments.exec_pct."+id] = pct(byID[id], execute)
	}
	got["runsvc.executed_tasks"] = float64(r.first.ExecutedTasks)
	got["runsvc.cached_tasks"] = float64(r.first.CachedTasks)
	got["runsvc.hit_ratio"] = hitRatio(r.first)
	r.store.layers(s, got)
	got["cache.put_mb_per_s"] = rate(r.store.putBytes, s.total("cache.put"))
}

// digest is that of the first request's markdown, whose seed every run at
// the same -seed shares however many requests it sends.
func (r *registryCold) digest() string { return r.want[0] }

func (r *registryCold) memMB() (float64, error) { return heapLiveMB(), nil }

func (r *registryCold) close() error { return nil }

// statusPlan rebuilds a merged run's configuration and task plan from its
// status, as the cache keys them.
func statusPlan(st runsvc.RunStatus) (experiments.Config, []shard.ExperimentPlan) {
	cfg := experiments.Config{Quick: !st.Spec.Full, Trials: st.Spec.Trials, BaseSeed: st.Spec.Seed}
	plan := make([]shard.ExperimentPlan, len(st.Experiments))
	for i, e := range st.Experiments {
		plan[i] = shard.ExperimentPlan{ID: e.ID, Tasks: e.Tasks}
	}
	return cfg, plan
}

func tasks(plan []shard.ExperimentPlan) int {
	n := 0
	for _, p := range plan {
		n += p.Tasks
	}
	return n
}

func hitRatio(st runsvc.RunStatus) float64 {
	if all := st.CachedTasks + st.ExecutedTasks; all > 0 {
		return float64(st.CachedTasks) / float64(all)
	}
	return 0
}

// runSpan prefixes the span of one experiment's Run call.
const runSpan = "experiments.run/"

// timedRunner is a runsvc.Runner that delegates to the engine runner and
// records a span around each lifecycle phase. wrap gives the service a
// catalog whose experiments record a span around every Run call, under the
// phase that made it.
type timedRunner struct {
	tr          *tracer
	req, parent int
	phase       atomic.Int64
}

func (t *timedRunner) enter(name string) int {
	sp := t.tr.begin(name, t.parent, t.req)
	t.phase.Store(int64(sp))
	return sp
}

func (t *timedRunner) Plan(cfg experiments.Config, exps []experiments.Experiment) ([]shard.ExperimentPlan, error) {
	defer t.tr.end(t.enter("runsvc.plan"))
	return runsvc.EngineRunner{}.Plan(cfg, exps)
}

func (t *timedRunner) Execute(cfg experiments.Config, exps []experiments.Experiment, index, count int) (*shard.Artifact, error) {
	defer t.tr.end(t.enter("runsvc.execute"))
	return runsvc.EngineRunner{}.Execute(cfg, exps, index, count)
}

func (t *timedRunner) Merge(cfg experiments.Config, exps []experiments.Experiment, m *shard.Merged) ([]*experiments.Result, []error) {
	defer t.tr.end(t.enter("runsvc.merge"))
	return runsvc.EngineRunner{}.Merge(cfg, exps, m)
}

func (t *timedRunner) wrap(exps []experiments.Experiment) []experiments.Experiment {
	out := make([]experiments.Experiment, len(exps))
	for i, e := range exps {
		run, name := e.Run, runSpan+e.ID
		e.Run = func(cfg experiments.Config) (*experiments.Result, error) {
			sp := t.tr.begin(name, int(t.phase.Load()), t.req)
			defer t.tr.end(sp)
			return run(cfg)
		}
		out[i] = e
	}
	return out
}

// phaseRuns groups the experiment Run spans under each execute phase by
// experiment, in start order. The execute phase first re-plans (one Run per
// experiment, in sequence) and then executes (one more Run each), so an
// experiment with two spans re-planned in its first.
func phaseRuns(s spanSet) []map[string][]int {
	var out []map[string][]int
	for i, sp := range s.spans {
		if sp.Name != "runsvc.execute" {
			continue
		}
		byID := map[string][]int{}
		for _, k := range s.children[i] {
			if id, ok := strings.CutPrefix(s.spans[k].Name, runSpan); ok {
				byID[id] = append(byID[id], k)
			}
		}
		for _, ks := range byID {
			sort.Slice(ks, func(a, b int) bool { return s.spans[ks[a]].Start < s.spans[ks[b]].Start })
		}
		out = append(out, byID)
	}
	return out
}

// replanTotal is the time execute phases spent re-planning.
func replanTotal(s spanSet) time.Duration {
	var d time.Duration
	for _, byID := range phaseRuns(s) {
		for _, ks := range byID {
			if len(ks) == 2 {
				d += s.dur(ks[0])
			}
		}
	}
	return d
}

// execTotals is, per experiment, the time from the start of its
// execute-phase Run until its last task finished in the shared pool.
func execTotals(s spanSet) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, byID := range phaseRuns(s) {
		for id, ks := range byID {
			out[id] += s.dur(ks[len(ks)-1])
		}
	}
	return out
}

// runsvcLayers adds the runsvc phase shares of every traced runsvc request.
func runsvcLayers(s spanSet, got map[string]float64) {
	whole := s.total("runsvc.request")
	replan := replanTotal(s)
	got["runsvc.plan_pct"] = pct(s.total("runsvc.plan"), whole)
	got["runsvc.replan_pct"] = pct(replan, whole)
	got["runsvc.execute_pct"] = pct(s.total("runsvc.execute")-replan, whole)
	got["runsvc.merge_pct"] = pct(s.total("runsvc.merge"), whole)
	got["runsvc.self_pct"] = pct(s.selfTotal("runsvc.request"), whole)
}

// storeStats prices the cache, shard and report layers by calling them
// directly on a run's records and cache directory, as part of the check.
// Byte and record counts accumulate over traced requests only, matching the
// spans they are divided by; sizes are those of the first checked request.
type storeStats struct {
	getBytes, putBytes, writeBytes, readBytes, renderBytes, mergeRecs int64

	sized                                          bool
	entryKB, totalMB, artifactMB, markdownKB, recs float64
}

// render renders the results as markdown.
func (st *storeStats) render(tr *tracer, parent, req int, results []*experiments.Result) ([]byte, error) {
	var buf bytes.Buffer
	sp := tr.begin("report.render", parent, req)
	// A deviation from the paper's claim is a finding of the run, not a
	// failure of the system; it is part of the checked bytes.
	_ = report.Render(&buf, results, report.Options{Markdown: true})
	tr.end(sp)
	if buf.Len() == 0 {
		return nil, fmt.Errorf("empty markdown")
	}
	if tr != nil {
		st.renderBytes += int64(buf.Len())
	}
	if !st.sized {
		st.markdownKB = float64(buf.Len()) / 1024
	}
	return buf.Bytes(), nil
}

// reload reads every experiment of the plan back through the cache and
// checks each entry tiles its experiment's plan.
func (st *storeStats) reload(tr *tracer, parent, req int, cfg experiments.Config, dir string, plan []shard.ExperimentPlan) ([]shard.TaskRecord, error) {
	cache, err := runsvc.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	var recs []shard.TaskRecord
	sp := tr.begin("cache.get", parent, req)
	for _, p := range plan {
		r, ok := cache.Get(runsvc.ExperimentKey(cfg, p), cfg, p)
		if !ok || len(r) != p.Tasks {
			tr.end(sp)
			return nil, fmt.Errorf("cache entry of %s did not reload with its %d tasks", p.ID, p.Tasks)
		}
		recs = append(recs, r...)
	}
	tr.end(sp)
	files, size, err := dirSize(dir)
	if err != nil {
		return nil, err
	}
	if files == 0 {
		return nil, fmt.Errorf("cache directory %s is empty", dir)
	}
	if tr != nil {
		st.getBytes += size
	}
	if !st.sized {
		st.entryKB = float64(size) / float64(files) / 1024
		st.totalMB = float64(size) / (1 << 20)
	}
	return recs, nil
}

// rewrite stores the records in a second cache directory and checks its
// entries are byte-identical to the service's: cache entries are canonical.
func (st *storeStats) rewrite(tr *tracer, parent, req int, cfg experiments.Config, dir, probe string, plan []shard.ExperimentPlan, recs []shard.TaskRecord) error {
	defer os.RemoveAll(probe)
	cache, err := runsvc.OpenCache(probe)
	if err != nil {
		return err
	}
	byExp := map[string][]shard.TaskRecord{}
	for _, r := range recs {
		byExp[r.Exp] = append(byExp[r.Exp], r)
	}
	sp := tr.begin("cache.put", parent, req)
	for _, p := range plan {
		if err := cache.Put(runsvc.ExperimentKey(cfg, p), cfg, p, byExp[p.ID]); err != nil {
			tr.end(sp)
			return err
		}
	}
	tr.end(sp)
	_, size, err := dirSize(probe)
	if err != nil {
		return err
	}
	if tr != nil {
		st.putBytes += size
	}
	return sameFiles(dir, probe)
}

// roundTrip reassembles the records into one merged artifact, writes it and
// reads it back.
func (st *storeStats) roundTrip(tr *tracer, parent, req int, cfg experiments.Config, path string, plan []shard.ExperimentPlan, recs []shard.TaskRecord) error {
	defer os.Remove(path)
	sp := tr.begin("shard.merge", parent, req)
	_, err := shard.NewMerged(cfg.BaseSeed, cfg.Quick, cfg.EffectiveTrials(), plan, recs)
	tr.end(sp)
	if err != nil {
		return err
	}
	a := &shard.Artifact{
		Version: shard.SchemaVersion, Shard: 1, Shards: 1,
		BaseSeed: cfg.BaseSeed, Quick: cfg.Quick, Trials: cfg.EffectiveTrials(),
		Plan: plan, Records: recs,
	}
	sp = tr.begin("shard.write", parent, req)
	err = shard.Write(path, a)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("shard.read", parent, req)
	back, err := shard.Read(path)
	tr.end(sp)
	if err != nil {
		return err
	}
	if len(back.Records) != len(recs) {
		return fmt.Errorf("merged artifact read back %d records, wrote %d", len(back.Records), len(recs))
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if tr != nil {
		st.mergeRecs += int64(len(recs))
		st.writeBytes += fi.Size()
		st.readBytes += fi.Size()
	}
	if !st.sized {
		st.artifactMB = float64(fi.Size()) / (1 << 20)
		st.recs = float64(len(recs))
		st.sized = true
	}
	return nil
}

func (st *storeStats) layers(s spanSet, got map[string]float64) {
	got["cache.get_mb_per_s"] = rate(st.getBytes, s.total("cache.get"))
	got["cache.entry_kb"] = st.entryKB
	got["cache.total_mb"] = st.totalMB
	got["shard.read_mb_per_s"] = rate(st.readBytes, s.total("shard.read"))
	got["shard.write_mb_per_s"] = rate(st.writeBytes, s.total("shard.write"))
	got["shard.merge_krec_per_s"] = 0
	if d := s.total("shard.merge"); d > 0 {
		got["shard.merge_krec_per_s"] = float64(st.mergeRecs) / 1e3 / d.Seconds()
	}
	got["shard.artifact_mb"] = st.artifactMB
	got["shard.records"] = st.recs
	got["report.render_mb_per_s"] = rate(st.renderBytes, s.total("report.render"))
	got["report.markdown_kb"] = st.markdownKB
}

// rate is bytes per second of d, in MB/s; 0 when nothing was timed.
func rate(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// dirSize counts the regular files under dir and their bytes.
func dirSize(dir string) (files int, size int64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		files++
		size += fi.Size()
	}
	return files, size, nil
}

// sameFiles checks two directories hold the same file names with the same
// bytes.
func sameFiles(a, b string) error {
	ea, err := os.ReadDir(a)
	if err != nil {
		return err
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		return err
	}
	if len(ea) != len(eb) {
		return fmt.Errorf("%s holds %d entries, %s holds %d", a, len(ea), b, len(eb))
	}
	for i := range ea {
		if ea[i].Name() != eb[i].Name() {
			return fmt.Errorf("entry %s has no twin %s", ea[i].Name(), eb[i].Name())
		}
		x, err := os.ReadFile(filepath.Join(a, ea[i].Name()))
		if err != nil {
			return err
		}
		y, err := os.ReadFile(filepath.Join(b, eb[i].Name()))
		if err != nil {
			return err
		}
		if !bytes.Equal(x, y) {
			return fmt.Errorf("cache entry %s is not byte-identical when rewritten", ea[i].Name())
		}
	}
	return nil
}
