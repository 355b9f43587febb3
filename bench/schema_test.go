package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// declFile mirrors BENCHMARK.json at the repository root.
type declFile struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []declWork `json:"workloads"`
	EndToEnd   []declE2E  `json:"end_to_end"`
	PerLayer   []declPL   `json:"per_layer"`
}

type declWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declPL struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readDecl(t *testing.T) declFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json has no %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has unexpected key %q", k)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d declFile
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkSchema checks BENCHMARK.json against its limits and against
// the harness's own tables, which it must restate exactly.
func TestBenchmarkSchema(t *testing.T) {
	d := readDecl(t)
	if strings.Join(d.Command, " ") != "bash bench/run.sh" || strings.Join(d.Paths, " ") != "bench" {
		t.Errorf("command %v, paths %v", d.Command, d.Paths)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", d.RunSeconds)
	}
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-], starting with a letter or digit, at most 64 long", kind, name)
		}
		if seen[kind+" "+name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[kind+" "+name] = true
	}

	var wnames []string
	for _, w := range d.Workloads {
		checkName("workload", w.Name)
		wnames = append(wnames, w.Name)
		// Every workload states its closed-loop client count and why it was
		// chosen.
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !strings.Contains(w.Why, "closed loop, 1 client") {
			t.Errorf("workload %s: why %q must be one line of at most 200 characters naming its closed loop and client count", w.Name, w.Why)
		}
	}
	if strings.Join(wnames, ",") != strings.Join(allWorkloads, ",") || strings.Join(names(table()), ",") != strings.Join(allWorkloads, ",") {
		t.Errorf("declared workloads %v, harness %v and %v", wnames, allWorkloads, names(table()))
	}

	e2e := map[string]bool{}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics declared, harness prints %d", len(d.EndToEnd), len(endToEnd))
	}
	for i, m := range d.EndToEnd {
		checkName("end-to-end", m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad unit, direction or bound", m)
		}
		if i < len(endToEnd) {
			h := endToEnd[i]
			if h.name != m.Name || h.unit != m.Unit || h.better != m.Better || h.bound != m.Bound {
				t.Errorf("end-to-end metric %d: declared %+v, harness %+v", i, m, h)
			}
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, m := range d.EndToEnd {
		if m.Name == "setup_s" {
			for _, o := range d.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s is %+v", m)
			}
		}
	}

	if len(d.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics declared, harness prints %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		checkName("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v: bad unit or direction", m)
		}
		if i >= len(perLayer) {
			continue
		}
		h := perLayer[i]
		if h.name != m.Name || h.unit != m.Unit || h.better != m.Better {
			t.Errorf("per-layer metric %d: declared %+v, harness %s %s %s", i, m, h.name, h.unit, h.better)
		}
		// Every per-layer metric names the end-to-end metric it should move
		// and the workloads that measure it.
		if !e2e[h.moves] {
			t.Errorf("per-layer metric %s moves undeclared end-to-end metric %q", h.name, h.moves)
		}
		if len(h.on) == 0 {
			t.Errorf("per-layer metric %s is measured on no workload", h.name)
		}
		for _, w := range h.on {
			if !strings.Contains(","+strings.Join(wnames, ",")+",", ","+w+",") {
				t.Errorf("per-layer metric %s is measured on undeclared workload %q", h.name, w)
			}
		}
	}
}
