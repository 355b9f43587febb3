// Command bench is the repository's one fixed benchmark. Four workloads
// price the reproduction end to end, and a traced run prices it layer by
// layer:
//
//	registry-cold   cold runs of the 17 light registry experiments through runsvc
//	daemon-warm     warm-cache requests to a dgserved daemon over loopback HTTP
//	engine-dense    radio.Run broadcast trials on a dense n = 10⁴ circulant
//	engine-sparse   radio.Run broadcast trials on ring+chords at n = 10⁵ and 10⁶
//
// Run it from the repository root through the wrapper, which builds the
// harness and the daemon:
//
//	bash bench/run.sh -workload <name|all> -seed <n> [-seconds 25] [-trace 0|1|FILE]
//
// Each workload runs in its own process as a closed loop with one client.
// It sets up several times (setup_s is the median), then sends requests
// until the next one would end after -seconds, with a fixed reference
// kernel between them that gauges the machine's speed (refkernel.go).
// Every request's output is checked; a failed check counts the request as
// failed. An untraced run prints the end-to-end metrics, a traced run the
// per-layer metrics and a span file. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 41, "failed": 0, "metrics": {"req_cpu_ms": {"value": 452.1, "unit": "ms"}, ...}}
//
// The line before it carries the digest of the run's checked output, so
// two commits can be compared at one seed. bench/README.md describes the
// workloads and every metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow cold start does not decide it. The count is fixed:
// set-ups leave memos behind, so mem_mb depends on it.
const setupReps = 3

// minRequests is the fewest requests a run measures, however long they take.
const minRequests = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(allWorkloads, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 25, "length of the measured phase in seconds")
	traceArg := fs.String("trace", "0", "0 for an untraced run; 1 or a span file path for a traced run")
	work := fs.String("work", ".bench_build", "directory for run files and span files")
	dgserved := fs.String("dgserved", "", "dgserved binary, for daemon-warm")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if err := checkClocks(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *name == "all" {
		return runAll(options{*seed, *seconds, *traceArg, *work, *dgserved}, stdout, stderr)
	}
	w, ok := lookup(table(), *name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	c := &config{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		setups:   setupReps,
		dgserved: *dgserved,
	}
	var tracePath string
	if *traceArg != "0" {
		c.tr = newTracer()
		tracePath = *traceArg
		if tracePath == "1" {
			tracePath = filepath.Join(*work, "trace", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		}
	}
	dir, err := newRunDir(*work)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	c.work = dir

	res, summary, err := runWorkload(w, c)
	if err == nil && c.tr != nil {
		if err = os.MkdirAll(filepath.Dir(tracePath), 0o755); err == nil {
			err = c.tr.write(tracePath)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, summary)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// newRunDir makes this process's scratch directory under work.
func newRunDir(work string) (string, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// runAll runs every workload in its own process, one after another, with
// the same flags, and relays each one's output.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range allWorkloads {
		child := exec.Command(self, o.args(w)...)
		child.Stdout, child.Stderr = stdout, stderr
		child.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := child.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// options are the parsed flags.
type options struct {
	seed                  uint64
	seconds               float64
	trace, work, dgserved string
}

// args is the argument list of one workload's process. A span file path
// gets the workload's name, so the processes do not overwrite each other.
func (o options) args(w string) []string {
	trace := o.trace
	if trace != "0" && trace != "1" {
		trace = strings.TrimSuffix(trace, ".json") + "-" + w + ".json"
	}
	return []string{"-workload", w, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-work", o.work, "-dgserved", o.dgserved}
}

// config is one run's settings.
type config struct {
	seed   uint64
	window time.Duration
	// maxRequests caps the measured requests; 0 means until the window
	// closes. Tests use it to run a workload twice, quickly.
	maxRequests int
	setups      int
	work        string
	dgserved    string
	// tr is nil for an untraced run.
	tr *tracer
}

// session is one set-up instance of a workload.
type session interface {
	// request performs request i and checks its output. The returned sample
	// times only what a user waits for, not the check. A non-nil error
	// counts the request as failed. tr is nil on untraced requests.
	request(i int, tr *tracer) (sample, error)
	// layers adds the session's per-layer values, from the spans of the
	// traced requests and from its own counts.
	layers(s spanSet, got map[string]float64)
	// digest summarizes the checked output; equal seeds give equal digests.
	digest() string
	// memMB is the live heap of the process that serves the requests.
	memMB() (float64, error)
	close() error
}

// sample is one request's cost: wall-clock latency and the CPU time of the
// process that serves it.
type sample struct {
	latency, cpu time.Duration
}

// workload is one entry of the benchmark table.
type workload struct {
	name string
	// setup builds a session; sp is the enclosing set-up span.
	setup func(c *config, sp int) (session, error)
}

func lookup(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// table is the benchmark. Sizes are fixed here, not by flags.
func table() []workload {
	return []workload{
		{wRegistryCold, func(c *config, sp int) (session, error) { return newRegistryCold(c, sp, coldSpec) }},
		{wDaemonWarm, func(c *config, sp int) (session, error) { return newDaemonWarm(c, sp, lightIDs) }},
		{wEngineDense, func(c *config, sp int) (session, error) { return newEngine(c, sp, denseEngine) }},
		{wEngineSparse, func(c *config, sp int) (session, error) { return newEngine(c, sp, sparseEngine) }},
	}
}

// runWorkload sets the workload up c.setups times, measures the last
// session, and returns the result line and a one-line summary.
func runWorkload(w workload, c *config) (result, string, error) {
	ref, err := newRefKernel()
	if err != nil {
		return result{}, "", err
	}
	defer ref.close()
	var (
		sess     session
		setupCPU []float64
	)
	for rep := 0; rep < c.setups; rep++ {
		if sess != nil {
			if err := sess.close(); err != nil {
				return result{}, "", err
			}
			sess = nil
		}
		// Collect the previous session's garbage outside the timed set-up.
		runtime.GC()
		cpu0 := cpuTime()
		sp := c.tr.begin("setup", -1, -1)
		s, err := w.setup(c, sp)
		c.tr.end(sp)
		if err != nil {
			return result{}, "", fmt.Errorf("set-up: %w", err)
		}
		cpu := cpuTime() - cpu0
		if h, ok := s.(helperCPU); ok {
			d, err := h.helperCPU()
			if err != nil {
				s.close()
				return result{}, "", fmt.Errorf("set-up: %w", err)
			}
			cpu += d
		}
		setupCPU = append(setupCPU, cpu.Seconds())
		sess = s
	}
	defer sess.close()

	m, err := measure(c, sess, ref)
	if err != nil {
		return result{}, "", err
	}
	got := map[string]float64{}
	decls := endToEnd
	if c.tr == nil {
		f := ref.factor()
		got["setup_s"] = median(setupCPU) * f
		got["req_cpu_ms"] = mean(m.cpuMS) * f
		got["mem_mb"] = m.served
	} else {
		decls = perLayer
		runtimeLayers(m, ref, got)
		sess.layers(c.tr.finished(), got)
	}
	metrics, err := collect(w.name, decls, c.tr != nil, got)
	if err != nil {
		return result{}, "", err
	}
	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   metrics,
	}
	summary := fmt.Sprintf("# %s seed=%d requests=%d failed=%d digest=%s", w.name, c.seed, m.attempted, m.failed, sess.digest())
	return res, summary, nil
}

// helperCPU is implemented by a session whose requests are served by
// another process: it reports the CPU time that process has used so far,
// which set-up adds to its own.
type helperCPU interface {
	helperCPU() (time.Duration, error)
}

// measurement is what the closed loop observed.
type measurement struct {
	latMS, cpuMS        []float64
	tracedCPU, plainCPU []float64
	attempted, failed   int
	// served is the session's memMB after the first request.
	served float64
	// memFirst and memLast are this process's live heap after the first and
	// the last request. For daemon-warm that is the client.
	memFirst, memLast float64
}

// measure runs the closed loop: one client, each request sent when the
// previous one and its check have finished. Before each request the
// reference kernel runs for at least one unit, and for more until it has
// had refShare of the CPU time the requests used. The loop stops once the
// next request would likely end after the window, but never before
// minRequests. In a traced run every other request is traced, and the
// untraced ones give the tracing overhead.
func measure(c *config, s session, ref *refKernel) (measurement, error) {
	var (
		m              measurement
		reqCPU, refCPU time.Duration
	)
	start := time.Now()
	for i := 0; c.maxRequests == 0 || i < c.maxRequests; i++ {
		if el := time.Since(start); i >= minRequests && el+el/time.Duration(i) > c.window {
			break
		}
		for refCPU += ref.unit(); float64(refCPU) < refShare*float64(reqCPU); {
			refCPU += ref.unit()
		}
		var tr *tracer
		if c.tr != nil && i%2 == 0 {
			tr = c.tr
		}
		smp, err := s.request(i, tr)
		m.attempted++
		if err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "bench: request %d failed: %v\n", i, err)
			continue
		}
		reqCPU += smp.cpu
		cpu := float64(smp.cpu.Nanoseconds()) / 1e6
		m.latMS = append(m.latMS, float64(smp.latency.Nanoseconds())/1e6)
		m.cpuMS = append(m.cpuMS, cpu)
		if tr != nil {
			m.tracedCPU = append(m.tracedCPU, cpu)
		} else {
			m.plainCPU = append(m.plainCPU, cpu)
		}
		if len(m.latMS) == 1 {
			// The first request is fixed work, so the memory it leaves is
			// repeatable; what later requests add is the retention rate.
			if m.served, err = s.memMB(); err != nil {
				return m, err
			}
			m.memFirst = heapLiveMB()
		}
	}
	if len(m.latMS) == 0 {
		return m, fmt.Errorf("all %d requests failed", m.attempted)
	}
	m.memLast = heapLiveMB()
	return m, nil
}

// runtimeLayers adds the per-layer values every workload measures.
func runtimeLayers(m measurement, ref *refKernel, got map[string]float64) {
	got["req.wall_p50_ms"] = median(m.latMS)
	got["req.wall_p90_ms"] = quantile(m.latMS, 0.9)
	got["req.cpu_raw_ms"] = mean(m.cpuMS)
	got["ref.unit_ms"] = median(ref.units)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	got["go.gc_cycles"] = float64(ms.NumGC)
	got["go.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	got["proc.vmhwm_mb"] = procStatusMB(os.Getpid(), "VmHWM")
	got["go.retained_kb_per_req"] = 0
	if n := len(m.latMS); n > 1 {
		got["go.retained_kb_per_req"] = (m.memLast - m.memFirst) * 1024 / float64(n-1)
	}
	got["trace.overhead_pct"] = 0
	if len(m.tracedCPU) > 0 && len(m.plainCPU) > 0 {
		got["trace.overhead_pct"] = 100 * (mean(m.tracedCPU)/mean(m.plainCPU) - 1)
	}
}

// heapLiveMB is the live heap after two collections: what the process
// still references, without garbage waiting for the collector.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// procCPU is the CPU time another process has used: the sum over its
// threads of the nanoseconds /proc/<pid>/task/<tid>/schedstat reports.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		var ns int64
		if _, err := fmt.Sscan(string(data), &ns); err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procStatusMB reads one kB-valued field of /proc/<pid>/status in MB, or 0
// when it cannot be read.
func procStatusMB(pid int, field string) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}
