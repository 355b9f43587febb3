package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/adversary"
	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

// substrateSpec is one network of an engine workload, built exactly as the
// SCALE-n experiment builds it from the same seed.
type substrateSpec struct {
	name string
	n    int
	// deg is the circulant degree; 0 builds a ring with 2n random chords.
	deg int
	// extra is the number of E'\E pairs sampled onto G'.
	extra int
	seed  uint64
	// decompose builds the network decomposition in set-up, timed on its
	// own: the block-sparse rows of large sparse networks are stored in its
	// cluster-major order.
	decompose bool
}

// rowSpec is one measured configuration: decay global broadcast from node 0
// on a substrate, with or without an adversary.
type rowSpec struct {
	name, sub string
	// static adds the oblivious adversary that always selects every other
	// E'\E edge (SCALE-n's oblivious-static row).
	static bool
	// horizon, when non-zero, stops the trial after that many rounds, before
	// the broadcast completes; otherwise it runs to completion within a
	// budget of 500·log n rounds.
	horizon int
}

type engineSpec struct {
	subs []substrateSpec
	rows []rowSpec
}

// denseEngine is the dense regime: SCALE-n's n = 10⁴ circulant of degree
// 512, with and without the committed half-fringe selector (the static
// selector rows). It runs no runsvc, cache or experiments code.
var denseEngine = engineSpec{
	subs: []substrateSpec{{name: "circ1e4", n: 10000, deg: 512, extra: 20000, seed: 0x5ca1e04}},
	rows: []rowSpec{{name: "circ1e4", sub: "circ1e4"}, {name: "circ1e4-static", sub: "circ1e4", static: true}},
}

// sparseEngine is the sparse regime: SCALE-n's ring+chords substrates at
// n = 10⁵, run to completion, and n = 10⁶, stopped after 60 rounds — a
// whole million-node trial takes ~17 s, longer than a run, and a run needs
// many trials for a steady median. Its first rounds are dominated by the
// per-round cost of the coin fills and the region summaries over all 10⁶
// nodes, until the informed set takes off.
var sparseEngine = engineSpec{
	subs: []substrateSpec{
		{name: "rc1e5", n: 100000, extra: 100000, seed: 0x5ca1e05, decompose: true},
		{name: "rc1e6", n: 1000000, extra: 1000000, seed: 0x5ca1e06, decompose: true},
	},
	rows: []rowSpec{{name: "rc1e5", sub: "rc1e5"}, {name: "rc1e6", sub: "rc1e6", horizon: 60}},
}

// engine runs one trial of every row per request, each row at the same
// trial seed, through radio.Run alone.
type engine struct {
	c    *config
	spec engineSpec
	nets map[string]*graph.Dual
	cfgs []radio.Config
	stat []rowStat
	dig  string
}

// rowStat accumulates one row's trials.
type rowStat struct {
	nodeRounds     float64
	busy           time.Duration
	allocs, kbytes []float64
	// first is the first request's result, whose counts repeat exactly at
	// a given seed.
	first radio.Result
}

func newEngine(c *config, sp int, spec engineSpec) (*engine, error) {
	e := &engine{c: c, spec: spec, nets: map[string]*graph.Dual{}}
	for _, s := range spec.subs {
		b := c.tr.begin("graph.build/"+s.name, sp, -1)
		e.nets[s.name] = buildSubstrate(s)
		c.tr.end(b)
		if s.decompose {
			d := c.tr.begin("graph.decompose/"+s.name, sp, -1)
			graph.DecompositionOf(e.nets[s.name].G())
			c.tr.end(d)
		}
	}
	for _, r := range spec.rows {
		net, ok := e.nets[r.sub]
		if !ok {
			return nil, fmt.Errorf("row %s names unknown substrate %s", r.name, r.sub)
		}
		cfg := radio.Config{
			Net:       net,
			Algorithm: core.DecayGlobal{},
			Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
			MaxRounds: 500 * bitrand.LogN(net.N()),
		}
		if r.horizon > 0 {
			cfg.MaxRounds = r.horizon
		}
		if r.static {
			cfg.Link = adversary.Static{Selector: halfFringe(net)}
		}
		// One round builds what a trial memoizes per network: the mask rows.
		w := c.tr.begin("radio.warmup/"+r.name, sp, -1)
		warm := cfg
		warm.MaxRounds, warm.Seed = 1, 1
		_, err := radio.Run(warm)
		c.tr.end(w)
		if err != nil {
			return nil, fmt.Errorf("warm-up of %s: %w", r.name, err)
		}
		e.cfgs = append(e.cfgs, cfg)
	}
	e.stat = make([]rowStat, len(spec.rows))
	return e, nil
}

func buildSubstrate(s substrateSpec) *graph.Dual {
	src := bitrand.New(s.seed)
	var g *graph.Graph
	if s.deg > 0 {
		g = graph.Circulant(s.n, s.deg)
	} else {
		g = graph.RingChords(src, s.n, 2*s.n)
	}
	return graph.AugmentDual(src, g, s.extra)
}

// halfFringe selects every other E'\E edge, in node order.
func halfFringe(d *graph.Dual) graph.EdgeSelector {
	var edges []graph.EdgeKey
	keep := true
	for u := 0; u < d.N(); u++ {
		for _, v := range d.ExtraNeighbors(u) {
			if v <= u {
				continue
			}
			if keep {
				edges = append(edges, graph.EdgeKey{U: u, V: v})
			}
			keep = !keep
		}
	}
	return graph.NewSelectSet(edges)
}

func (e *engine) request(i int, tr *tracer) (sample, error) {
	seed := bitrand.New(e.c.seed).SplitSeed(uint64(i))
	req := tr.begin("request", -1, i)
	start, cpu0 := time.Now(), cpuTime()
	results := make([]radio.Result, len(e.cfgs))
	var ms0, ms1 runtime.MemStats
	for k, cfg := range e.cfgs {
		cfg.Seed = seed
		sp := tr.begin("radio.trial/"+e.spec.rows[k].name, req, i)
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		res, err := radio.Run(cfg)
		busy := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		tr.end(sp)
		if err != nil {
			tr.end(req)
			return sample{}, fmt.Errorf("%s trial: %w", e.spec.rows[k].name, err)
		}
		results[k] = res
		st := &e.stat[k]
		st.nodeRounds += float64(cfg.Net.N()) * float64(res.Rounds)
		st.busy += busy
		st.allocs = append(st.allocs, float64(ms1.Mallocs-ms0.Mallocs))
		st.kbytes = append(st.kbytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024)
	}
	smp := sample{latency: time.Since(start), cpu: cpuTime() - cpu0}
	tr.end(req)

	chk := tr.begin("check", -1, i)
	defer tr.end(chk)
	h := sha256.New()
	for k, res := range results {
		row := e.spec.rows[k]
		if err := checkBroadcast(e.cfgs[k], row.horizon, res); err != nil {
			return smp, fmt.Errorf("%s trial at seed %#x: %w", row.name, seed, err)
		}
		if i == 0 {
			e.stat[k].first = res
			fmt.Fprintf(h, "%s %d %t %d %d\n", row.name, res.Rounds, res.Solved, res.Transmissions, res.Deliveries)
			b := make([]byte, 0, 8*len(res.InformedAt))
			for _, at := range res.InformedAt {
				b = binary.LittleEndian.AppendUint64(b, uint64(at))
			}
			h.Write(b)
		}
	}
	if i == 0 {
		e.dig = hex.EncodeToString(h.Sum(nil))
	}
	return smp, nil
}

// checkBroadcast verifies a global broadcast trial against the model: a
// node is informed only after a G' neighbor held the message (or the
// source), the counters agree with the informed set, and the trial solved
// or ran exactly to its horizon.
func checkBroadcast(cfg radio.Config, horizon int, res radio.Result) error {
	net, src := cfg.Net, cfg.Spec.Source
	if len(res.InformedAt) != net.N() {
		return fmt.Errorf("informed-at vector of length %d for %d nodes", len(res.InformedAt), net.N())
	}
	if res.InformedAt[src] != 0 {
		return fmt.Errorf("source informed at round %d", res.InformedAt[src])
	}
	informed, last := 0, 0
	for v, at := range res.InformedAt {
		if at < 0 {
			continue
		}
		informed++
		last = max(last, at)
		if v == src {
			continue
		}
		if at >= res.Rounds {
			return fmt.Errorf("node %d informed at round %d of %d", v, at, res.Rounds)
		}
		caused := false
		for _, u := range net.GPrime().Neighbors(v) {
			if w := res.InformedAt[u]; u == src || (w >= 0 && w < at) {
				caused = true
				break
			}
		}
		if !caused {
			return fmt.Errorf("node %d informed at round %d with no informed G' neighbor before it", v, at)
		}
	}
	switch {
	case res.Solved && (informed != net.N() || res.Rounds != last+1):
		return fmt.Errorf("solved with %d of %d informed in %d rounds, last informed at %d", informed, net.N(), res.Rounds, last)
	case !res.Solved && (horizon == 0 || res.Rounds != horizon):
		return fmt.Errorf("unsolved after %d rounds (horizon %d)", res.Rounds, horizon)
	}
	if res.Deliveries < int64(informed-1) {
		return fmt.Errorf("%d deliveries informed %d nodes", res.Deliveries, informed)
	}
	var tx int64
	for _, t := range res.TxByNode {
		tx += t
	}
	if tx != res.Transmissions || tx == 0 {
		return fmt.Errorf("per-node transmissions sum to %d, total %d", tx, res.Transmissions)
	}
	return nil
}

func (e *engine) layers(s spanSet, got map[string]float64) {
	setup := s.total("setup")
	for k, r := range e.spec.rows {
		st := e.stat[k]
		got["radio.node_rounds_per_s."+r.name] = st.nodeRounds / st.busy.Seconds()
		got["radio.rounds."+r.name] = float64(st.first.Rounds)
		got["radio.transmissions."+r.name] = float64(st.first.Transmissions)
		got["radio.deliveries."+r.name] = float64(st.first.Deliveries)
		got["radio.allocs_per_trial."+r.name] = median(st.allocs)
		got["radio.kb_per_trial."+r.name] = median(st.kbytes)
		got["radio.warmup_pct."+r.name] = pct(s.total("radio.warmup/"+r.name), setup)
	}
	for _, sub := range e.spec.subs {
		net := e.nets[sub.name]
		got["graph.build_pct."+sub.name] = pct(s.total("graph.build/"+sub.name), setup)
		got["graph.edges."+sub.name] = float64(net.G().NumEdges())
		got["graph.extra_edges."+sub.name] = float64(net.NumExtraEdges())
		if sub.decompose {
			got["graph.decompose_pct."+sub.name] = pct(s.total("graph.decompose/"+sub.name), setup)
		}
	}
}

func (e *engine) digest() string { return e.dig }

func (e *engine) memMB() (float64, error) { return heapLiveMB(), nil }

func (e *engine) close() error {
	e.nets, e.cfgs = nil, nil
	return nil
}
