package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/bitrand"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/runsvc"
	"repro/internal/shard"
)

// daemonWarm sends the whole selection and then distinct random halves of
// it to a dgserved daemon whose cache already holds every experiment, so no
// engine work runs: the load is planning, cache reads, record reassembly,
// aggregation replay, rendering and HTTP — the reads beside registry-cold's
// writes.
type daemonWarm struct {
	c      *config
	exps   []experiments.Experiment
	dir    string
	daemon *exec.Cmd
	base   string
	client *http.Client
	subs   *bitrand.Source
	seen   map[string]bool

	// sections is each experiment's markdown as the in-process fill
	// rendered it, and fail whether it deviated: a subset's served bytes
	// must be its sections in ID order plus the summary line.
	sections map[string][]byte
	fail     map[string]bool
	tasks    map[string]int
	// dig is the digest of the markdown the daemon served for the whole
	// selection, the first request.
	dig string
	// cfg and plan are the fill's configuration and task plan: the whole
	// cache the daemon serves from.
	cfg  experiments.Config
	plan []shard.ExperimentPlan

	store storeStats
	first runsvc.RunStatus
	dedup int
	// heap0 is the daemon's live heap after the first request, in MB.
	heap0 float64
	// runs counts the runs submitted.
	runs int
	// heapFile is where the daemon writes its live heap when signalled.
	heapFile string
}

func newDaemonWarm(c *config, sp int, ids []string) (*daemonWarm, error) {
	if c.dgserved == "" {
		return nil, errors.New("daemon-warm needs the dgserved binary (-dgserved)")
	}
	exps, err := selection(ids)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.work, "warm-")
	if err != nil {
		return nil, err
	}
	d := &daemonWarm{
		c: c, exps: exps, dir: dir, heapFile: dir + ".heap",
		subs:     bitrand.New(c.seed).Split(0xda3),
		seen:     map[string]bool{},
		sections: map[string][]byte{},
		fail:     map[string]bool{},
		tasks:    map[string]int{},
	}
	fill := c.tr.begin("fill", sp, -1)
	err = d.fillCache(ids)
	c.tr.end(fill)
	if err == nil {
		start := c.tr.begin("dgserved.start", sp, -1)
		err = d.start()
		c.tr.end(start)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// fillCache runs the whole selection in-process into the daemon's cache
// directory and keeps each experiment's rendered markdown.
func (d *daemonWarm) fillCache(ids []string) error {
	svc, err := runsvc.New(runsvc.Options{CacheDir: d.dir})
	if err != nil {
		return err
	}
	defer svc.Close()
	run, err := svc.RunSync(runsvc.Spec{Experiments: ids, Seed: d.c.seed})
	if err != nil {
		return err
	}
	results, err := run.Results()
	if err != nil {
		return err
	}
	for _, res := range results {
		var b bytes.Buffer
		report.Result(&b, res, report.Options{Markdown: true})
		d.sections[res.ID] = b.Bytes()
		d.fail[res.ID] = !res.Pass
	}
	d.cfg, d.plan = statusPlan(run.Status())
	for _, p := range d.plan {
		d.tasks[p.ID] = p.Tasks
	}
	return nil
}

// start launches the daemon on a free loopback port and waits until it
// answers.
func (d *daemonWarm) start() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(d.c.dgserved, "-addr", addr, "-cache", d.dir)
	cmd.Env = append(os.Environ(), "BENCH_HEAP_FILE="+d.heapFile)
	cmd.Stderr = io.Discard
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	d.daemon = cmd
	d.base = "http://" + addr
	// One client, one connection.
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/v1/runs")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dgserved did not answer on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// halves is what request i submits: runs whose selections together are the
// whole selection, each experiment once. Request 0 submits the whole
// selection as one run, so that the first request is the same work at
// every seed. Every later request submits a random split into two halves
// that no earlier request sent, one run each. Every request so serves each
// experiment once, and its cost does not depend on the draw.
func (d *daemonWarm) halves(i int) ([][]string, error) {
	all := make([]string, len(d.exps))
	for k, e := range d.exps {
		all[k] = e.ID
	}
	sort.Strings(all)
	if i == 0 {
		return [][]string{all}, nil
	}
	if len(d.seen) >= 1<<len(all)-2 {
		return nil, errors.New("every split of the selection was sent")
	}
	for {
		var in, out []string
		for _, id := range all {
			if d.subs.Coin(0.5) {
				in = append(in, id)
			} else {
				out = append(out, id)
			}
		}
		key := strings.Join(in, ",")
		if len(in) > 0 && len(out) > 0 && !d.seen[key] {
			d.seen[key] = true
			d.seen[strings.Join(out, ",")] = true
			return [][]string{in, out}, nil
		}
	}
}

// submitted is dgserved's answer to a submission.
type submitted struct {
	ID       string `json:"id"`
	Existing bool   `json:"existing"`
}

func (d *daemonWarm) request(i int, tr *tracer) (sample, error) {
	sels, err := d.halves(i)
	if err != nil {
		return sample{}, err
	}
	var total sample
	for _, ids := range sels {
		smp, err := d.submit(i, ids, tr)
		total.latency += smp.latency
		total.cpu += smp.cpu
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// submit sends one run of the selection ids, waits for its result and
// checks it.
func (d *daemonWarm) submit(i int, ids []string, tr *tracer) (sample, error) {
	body, err := json.Marshal(runsvc.Spec{Experiments: ids, Seed: d.c.seed})
	if err != nil {
		return sample{}, err
	}
	pid := d.daemon.Process.Pid
	d.runs++
	req := tr.begin("request", -1, i)
	start := time.Now()
	cpu0, err := procCPU(pid)
	if err != nil {
		return sample{}, err
	}

	sp := tr.begin("dgserved.submit", req, i)
	var sub submitted
	err = d.call(http.MethodPost, "/v1/runs", body, http.StatusCreated, &sub)
	tr.end(sp)
	if err != nil {
		return sample{}, err
	}
	sp = tr.begin("dgserved.events", req, i)
	events, err := d.events(sub.ID)
	if err == nil {
		phases(tr, sp, i, events)
	}
	tr.end(sp)
	if err != nil {
		return sample{}, err
	}
	sp = tr.begin("dgserved.result", req, i)
	var md []byte
	err = d.call(http.MethodGet, "/v1/runs/"+sub.ID+"/result?format=markdown", nil, http.StatusOK, &md)
	tr.end(sp)
	cpu1, cerr := procCPU(pid)
	smp := sample{latency: time.Since(start), cpu: cpu1 - cpu0}
	tr.end(req)
	if err != nil {
		return smp, err
	}
	if cerr != nil {
		return smp, cerr
	}

	chk := tr.begin("check", -1, i)
	defer tr.end(chk)
	if sub.Existing {
		d.dedup++
	}
	var st runsvc.RunStatus
	if err := d.call(http.MethodGet, "/v1/runs/"+sub.ID, nil, http.StatusOK, &st); err != nil {
		return smp, err
	}
	if i == 0 {
		d.first = st
	}
	want := 0
	for _, id := range ids {
		want += d.tasks[id]
	}
	if st.State != runsvc.StateMerged || st.ExecutedTasks != 0 || st.CachedTasks != want {
		return smp, fmt.Errorf("warm run %s: state %s, executed %d and cached %d tasks, want merged, 0 and %d",
			sub.ID, st.State, st.ExecutedTasks, st.CachedTasks, want)
	}
	if !bytes.Equal(md, d.expected(ids)) {
		return smp, fmt.Errorf("served markdown of %v differs from the in-process render", ids)
	}
	if i == 0 {
		sum := sha256.Sum256(md)
		d.dig = hex.EncodeToString(sum[:])
	}
	if tr != nil {
		if err := d.twin(tr, chk, i, ids, md); err != nil {
			return smp, err
		}
	}
	return smp, nil
}

// expected is the markdown a subset must be served as.
func (d *daemonWarm) expected(ids []string) []byte {
	var b bytes.Buffer
	failed := 0
	for _, id := range ids {
		b.Write(d.sections[id])
		if d.fail[id] {
			failed++
		}
	}
	_ = report.Summary(&b, len(ids), failed)
	return b.Bytes()
}

// twin runs the subset through an in-process service over the daemon's
// cache, timing its phases, and checks the bytes match the served ones;
// then it prices the cache and shard layers on the whole cache.
func (d *daemonWarm) twin(tr *tracer, parent, i int, ids []string, served []byte) error {
	tm := &timedRunner{tr: tr, req: i}
	svc, err := runsvc.New(runsvc.Options{CacheDir: d.dir, Runner: tm, Catalog: tm.wrap(d.exps)})
	if err != nil {
		return err
	}
	defer svc.Close()
	rs := tr.begin("runsvc.request", parent, i)
	tm.parent = rs
	run, err := svc.RunSync(runsvc.Spec{Experiments: ids, Seed: d.c.seed})
	tr.end(rs)
	if err != nil {
		return err
	}
	results, err := run.Results()
	if err != nil {
		return err
	}
	md, err := d.store.render(tr, parent, i, results)
	if err != nil {
		return err
	}
	if !bytes.Equal(md, served) {
		return fmt.Errorf("in-process warm run of %v renders different bytes than the daemon served", ids)
	}
	recs, err := d.store.reload(tr, parent, i, d.cfg, d.dir, d.plan)
	if err != nil {
		return err
	}
	return d.store.roundTrip(tr, parent, i, d.cfg, filepath.Join(d.c.work, fmt.Sprintf("merged-%d.json", i)), d.plan, recs)
}

// phases records the daemon's lifecycle intervals from its event log:
// queued (submitted → planning), partition against the cache (planning →
// executing) and merge (executing → merged).
func phases(tr *tracer, parent, req int, events []runsvc.Event) {
	at := map[runsvc.State]time.Time{}
	for _, e := range events {
		if _, ok := at[e.State]; !ok {
			at[e.State] = e.Time
		}
	}
	for _, p := range []struct {
		name     string
		from, to runsvc.State
	}{
		{"dgserved.queue", runsvc.StateSubmitted, runsvc.StatePlanning},
		{"dgserved.partition", runsvc.StatePlanning, runsvc.StateExecuting},
		{"dgserved.merge", runsvc.StateExecuting, runsvc.StateMerged},
	} {
		a, okA := at[p.from]
		b, okB := at[p.to]
		if okA && okB {
			tr.record(p.name, a, b, parent, req)
		}
	}
}

// events reads the run's NDJSON event stream until the daemon closes it at
// the terminal state.
func (d *daemonWarm) events(id string) ([]runsvc.Event, error) {
	resp, err := d.client.Get(d.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events of %s: %s", id, resp.Status)
	}
	var events []runsvc.Event
	dec := json.NewDecoder(resp.Body)
	for {
		var e runsvc.Event
		if err := dec.Decode(&e); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("events of %s: %w", id, err)
		}
		events = append(events, e)
	}
	if len(events) == 0 || !events[len(events)-1].State.Terminal() {
		return nil, fmt.Errorf("event stream of %s ended before a terminal state", id)
	}
	if last := events[len(events)-1]; last.State != runsvc.StateMerged {
		return nil, fmt.Errorf("run %s failed: %s", id, last.Msg)
	}
	return events, nil
}

// call sends one request and decodes the answer: into *[]byte as raw
// bytes, otherwise as JSON.
func (d *daemonWarm) call(method, path string, body []byte, wantCode int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantCode {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

func (d *daemonWarm) layers(s spanSet, got map[string]float64) {
	runsvcLayers(s, got)
	whole := s.total("request")
	for _, p := range []string{"submit", "queue", "partition", "merge", "result"} {
		got["dgserved."+p+"_pct"] = pct(s.total("dgserved."+p), whole)
	}
	got["dgserved.stream_pct"] = pct(s.selfTotal("dgserved.events"), whole)
	got["dgserved.retained_kb_per_req"] = 0
	if heap, err := d.heapMB(); err == nil && d.runs > 1 {
		got["dgserved.retained_kb_per_req"] = (heap - d.heap0) * 1024 / float64(d.runs-1)
	}
	got["dgserved.dedup"] = float64(d.dedup)
	got["runsvc.executed_tasks"] = float64(d.first.ExecutedTasks)
	got["runsvc.cached_tasks"] = float64(d.first.CachedTasks)
	got["runsvc.hit_ratio"] = hitRatio(d.first)
	d.store.layers(s, got)
}

func (d *daemonWarm) digest() string { return d.dig }

// helperCPU is the CPU time the daemon has used since it started.
func (d *daemonWarm) helperCPU() (time.Duration, error) {
	return procCPU(d.daemon.Process.Pid)
}

// memMB is the daemon's live heap: the daemon is what a user of
// daemon-warm runs. The first reading is kept for the retention rate.
func (d *daemonWarm) memMB() (float64, error) {
	mb, err := d.heapMB()
	if err == nil && d.heap0 == 0 {
		d.heap0 = mb
	}
	return mb, err
}

// heapMB asks the daemon for its live heap after two collections: the
// benchmark's build of dgserved answers SIGUSR1 by writing it to heapFile
// (see daemonheap/heap.go). Its resident set is no substitute: at one seed
// and one point it varies by ±15% with the collector's phase.
func (d *daemonWarm) heapMB() (float64, error) {
	if err := os.Remove(d.heapFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	if err := d.daemon.Process.Signal(syscall.SIGUSR1); err != nil {
		return 0, err
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		data, err := os.ReadFile(d.heapFile)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, err
		}
		var bytes uint64
		if _, err := fmt.Sscan(string(data), &bytes); err != nil {
			return 0, fmt.Errorf("daemon heap file: %w", err)
		}
		return float64(bytes) / (1 << 20), nil
	}
	return 0, errors.New("dgserved did not report its heap; build it with bench/run.sh, which adds daemonheap/heap.go")
}

// close stops the daemon — SIGTERM lets it finish gracefully, SIGKILL
// follows if it has not exited within 10 s — waits for it, and removes
// its cache.
func (d *daemonWarm) close() error {
	var err error
	if d.daemon != nil {
		d.client.CloseIdleConnections()
		_ = d.daemon.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- d.daemon.Wait() }()
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			_ = d.daemon.Process.Kill()
			err = <-done
		}
		d.daemon = nil
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.Sys().(syscall.WaitStatus).Signaled() {
			err = nil
		}
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	if rerr := os.Remove(d.heapFile); err == nil && !errors.Is(rerr, os.ErrNotExist) {
		err = rerr
	}
	return err
}
