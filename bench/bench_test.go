package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// smallTable is the benchmark table at a size a test can afford: two
// registry experiments, tiny substrates under the real row names, and the
// same code paths as the full workloads. registry-cold cycles through one
// seed, so the second request checks its bytes against the first.
func smallTable() []workload {
	ids := []string{"F1-static-local", "T3.1-reduction"}
	cold := registrySpec{ids: ids, seeds: 1}
	dense := engineSpec{
		subs: []substrateSpec{{name: "circ1e4", n: 600, deg: 32, extra: 600, seed: 0x5ca1e04}},
		rows: denseEngine.rows,
	}
	sparse := engineSpec{
		subs: []substrateSpec{
			{name: "rc1e5", n: 2000, extra: 2000, seed: 0x5ca1e05, decompose: true},
			{name: "rc1e6", n: 5000, extra: 5000, seed: 0x5ca1e06, decompose: true},
		},
		rows: []rowSpec{{name: "rc1e5", sub: "rc1e5"}, {name: "rc1e6", sub: "rc1e6", horizon: 20}},
	}
	return []workload{
		{wRegistryCold, func(c *config, sp int) (session, error) { return newRegistryCold(c, sp, cold) }},
		{wDaemonWarm, func(c *config, sp int) (session, error) { return newDaemonWarm(c, sp, ids) }},
		{wEngineDense, func(c *config, sp int) (session, error) { return newEngine(c, sp, dense) }},
		{wEngineSparse, func(c *config, sp int) (session, error) { return newEngine(c, sp, sparse) }},
	}
}

// buildDaemon builds cmd/dgserved for daemon-warm as run.sh does, with
// daemonheap/heap.go overlaid into its package.
func buildDaemon(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {
		filepath.Join(root, "cmd", "dgserved", "zz_benchheap.go"): filepath.Join(root, "bench", "daemonheap", "heap.go"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	ov := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ov, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "dgserved")
	if out, err := exec.Command("go", "build", "-tags", "benchheap", "-overlay", ov, "-o", bin, "repro/cmd/dgserved").CombinedOutput(); err != nil {
		t.Fatalf("building dgserved: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsSmall runs every workload untraced and traced at the small
// size: no request may fail, both runs check the same output, and the
// metrics printed are exactly the ones BENCHMARK.json declares, in their
// declared units.
func TestWorkloadsSmall(t *testing.T) {
	decl := readDecl(t)
	bin := buildDaemon(t)
	ws := smallTable()
	if got, want := names(ws), allWorkloads; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("small table has workloads %v, the benchmark %v", got, want)
	}
	for _, w := range ws {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, traced := range []bool{false, true} {
				c := &config{seed: 7, window: time.Second, maxRequests: 2, setups: 1, work: t.TempDir(), dgserved: bin}
				var exp []string
				if traced {
					c.tr = newTracer()
					for _, m := range decl.PerLayer {
						exp = append(exp, m.Name+" "+m.Unit)
					}
				} else {
					for _, m := range decl.EndToEnd {
						exp = append(exp, m.Name+" "+m.Unit)
					}
				}
				res, summary, err := runWorkload(w, c)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != 2 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d, want 2 requests and no failure", traced, res.Correct, res.Attempted, res.Failed)
				}
				var got []string
				for name, v := range res.Metrics {
					got = append(got, name+" "+v.Unit)
				}
				sort.Strings(got)
				sort.Strings(exp)
				if strings.Join(got, "\n") != strings.Join(exp, "\n") {
					t.Errorf("traced=%v printed metrics\n%s\nwant\n%s", traced, strings.Join(got, "\n"), strings.Join(exp, "\n"))
				}
				if !traced {
					for _, m := range decl.EndToEnd {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s reads %v", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
				digests = append(digests, summary[strings.LastIndex(summary, "digest="):])
			}
			if digests[0] != digests[1] || digests[0] == "digest=" {
				t.Errorf("runs at one seed checked different outputs: %v", digests)
			}
		})
	}
}

func names(ws []workload) []string {
	var out []string
	for _, w := range ws {
		out = append(out, w.name)
	}
	return out
}

// TestSelfTime pins the self-time rule: a span's duration minus the union
// of its children, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	s := spanSet{spans: []span{
		{Name: "p", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 90, End: 120, Parent: 0},
	}}
	s.children = [][]int{{1, 2, 3}, nil, nil, nil}
	if got, want := s.self(0), time.Duration(100-50-10); got != want {
		t.Errorf("self = %v, want %v", got, want)
	}
}
