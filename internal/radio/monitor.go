package radio

import (
	"fmt"

	"repro/internal/graph"
)

// monitor tracks problem completion during an execution.
type monitor interface {
	// observe is called for every successful delivery.
	observe(round int, to graph.NodeID, msg *Message)
	// done reports whether the problem is solved.
	done() bool
	// progress returns the number of problem-relevant deliveries so far.
	progress() int
}

// globalMonitor tracks global broadcast: every node must hold the source
// message. A node holds it after receiving any message originating at the
// source (relays preserve Origin); the source holds it from the start.
// informed has bit u set once u holds it: most receptions after the take-off
// reach informed nodes, and the bitmap, n/8 bytes, answers them with one bit
// test where informedAt would cost a random load from an n-word array.
type globalMonitor struct {
	source     graph.NodeID
	informed   []uint64
	informedAt []int
	remaining  int
}

// newGlobalMonitor builds the monitor over the scratch's pooled buffers; the
// monitor is only valid until the owning engine releases its scratch.
func newGlobalMonitor(n int, source graph.NodeID, sc *scratch) (*globalMonitor, error) {
	if source < 0 || source >= n {
		return nil, fmt.Errorf("radio: global broadcast source %d out of range [0,%d)", source, n)
	}
	m := &sc.globalMon
	*m = globalMonitor{source: source, informed: sc.monBits, informedAt: sc.monInts, remaining: n - 1}
	for i := range m.informedAt {
		m.informedAt[i] = -1
	}
	m.informedAt[source] = 0
	m.informed[source>>6] |= 1 << (uint(source) & 63)
	return m, nil
}

func (m *globalMonitor) observe(round int, to graph.NodeID, msg *Message) {
	w, bit := &m.informed[to>>6], uint64(1)<<(uint(to)&63)
	if *w&bit != 0 || msg.Origin != m.source {
		return
	}
	*w |= bit
	m.informedAt[to] = round
	m.remaining--
}

func (m *globalMonitor) done() bool { return m.remaining == 0 }

func (m *globalMonitor) progress() int { return len(m.informedAt) - 1 - m.remaining }

// localMonitor tracks local broadcast: every node of R (nodes with a
// G-neighbor in B) must receive at least one message originating in B.
type localMonitor struct {
	inB       []bool
	doneAt    []int // -1 until satisfied; only meaningful for receivers
	inR       []bool
	remaining int
}

// newLocalMonitor builds the monitor over the scratch's pooled buffers (the
// membership sets arrive cleared from grow); the monitor is only valid until
// the owning engine releases its scratch.
func newLocalMonitor(d *graph.Dual, broadcasters []graph.NodeID, sc *scratch) (*localMonitor, error) {
	n := d.N()
	m := &sc.localMon
	*m = localMonitor{inB: sc.monB, doneAt: sc.monInts, inR: sc.monR}
	for i := range m.doneAt {
		m.doneAt[i] = -1
	}
	if len(broadcasters) == 0 {
		return nil, fmt.Errorf("radio: local broadcast requires a non-empty broadcaster set")
	}
	for _, u := range broadcasters {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("radio: broadcaster %d out of range [0,%d)", u, n)
		}
		m.inB[u] = true
	}
	// R = nodes with a G-neighbor in B, computed over the CSR rows into the
	// pooled membership set (graph.GNeighborsOf semantics, allocation-free).
	gOffs, gAdj := d.G().CSR()
	for u := 0; u < n; u++ {
		for _, v := range gAdj[gOffs[u]:gOffs[u+1]] {
			if m.inB[v] {
				m.inR[u] = true
				m.remaining++
				break
			}
		}
	}
	return m, nil
}

func (m *localMonitor) observe(round int, to graph.NodeID, msg *Message) {
	if !m.inR[to] || m.doneAt[to] != -1 || !m.inB[msg.Origin] {
		return
	}
	m.doneAt[to] = round
	m.remaining--
}

func (m *localMonitor) done() bool { return m.remaining == 0 }

func (m *localMonitor) progress() int {
	count := 0
	for u, at := range m.doneAt {
		if m.inR[u] && at != -1 {
			count++
		}
	}
	return count
}

// gossipMonitor tracks k-rumor spreading: every node must hold every rumor.
// A node holds rumor i after receiving any message originating at source i;
// each source starts holding its own rumor.
type gossipMonitor struct {
	k         int
	srcOf     []int   // node → rumor index, -1 for non-sources
	haveAt    [][]int // haveAt[u][i]: round node u first held rumor i, -1 if not
	remaining int
}

// newGossipMonitor builds the monitor over the scratch's pooled buffers: the
// Θ(n·k) round-stamp matrix is rows over one flat backing array resized in
// place on reuse, and the source index is the scratch's round-stamp slice
// repurposed as a node → rumor lookup (the gossip monitor is the only
// monitor of its engine, so the slice is free). Injected rumors
// (spec.Injections) count toward k; each injected origin is pre-stamped at
// its injection round — no other node can hold the rumor earlier, because
// nothing transmits it before the origin activates. Injection rounds must
// fall inside the execution's round budget: a rumor scheduled at or beyond
// maxRounds would count toward k while never entering the system, silently
// censoring every trial. Valid only until the owning engine releases its
// scratch.
func newGossipMonitor(n int, spec Spec, maxRounds int, sc *scratch) (*gossipMonitor, error) {
	sources := spec.Sources
	if len(sources) == 0 && len(spec.Injections) == 0 {
		return nil, fmt.Errorf("radio: gossip requires at least one source")
	}
	m := &sc.gossipMon
	*m = gossipMonitor{k: spec.NumRumors(), srcOf: sc.monInts}
	for i := range m.srcOf {
		m.srcOf[i] = -1
	}
	index := func(s graph.NodeID, i int) error {
		if s < 0 || s >= n {
			return fmt.Errorf("radio: gossip source %d out of range [0,%d)", s, n)
		}
		if m.srcOf[s] != -1 {
			return fmt.Errorf("radio: duplicate gossip source %d", s)
		}
		m.srcOf[s] = i
		return nil
	}
	for i, s := range sources {
		if err := index(s, i); err != nil {
			return nil, err
		}
	}
	for j, inj := range spec.Injections {
		if inj.Round < 0 {
			return nil, fmt.Errorf("radio: injection %d has negative round %d", j, inj.Round)
		}
		if inj.Round >= maxRounds {
			return nil, fmt.Errorf("radio: injection %d at round %d is at or beyond the %d-round budget; its rumor would count toward completion but never enter",
				j, inj.Round, maxRounds)
		}
		if err := index(inj.Source, len(sources)+j); err != nil {
			return nil, err
		}
	}
	k := m.k
	m.haveAt = sc.rumor(n, k)
	for u := range m.haveAt {
		row := m.haveAt[u]
		for i := range row {
			row[i] = -1
		}
	}
	for i, s := range sources {
		m.haveAt[s][i] = 0
	}
	for j, inj := range spec.Injections {
		m.haveAt[inj.Source][len(sources)+j] = inj.Round
	}
	m.remaining = n*k - k
	return m, nil
}

func (m *gossipMonitor) observe(round int, to graph.NodeID, msg *Message) {
	if msg.Origin < 0 || msg.Origin >= len(m.srcOf) {
		return // foreign origin, as the old map lookup treated it
	}
	i := m.srcOf[msg.Origin]
	if i < 0 || m.haveAt[to][i] != -1 {
		return
	}
	m.haveAt[to][i] = round
	m.remaining--
}

func (m *gossipMonitor) done() bool { return m.remaining == 0 }

func (m *gossipMonitor) progress() int {
	total := len(m.haveAt) * m.k
	return total - m.k - m.remaining
}
