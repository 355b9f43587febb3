package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/bitrand"
)

// This file implements a deterministic (C, d)-network-decomposition of the
// reliable graph G, in the spirit of Rozhoň–Ghaffari (STOC 2020): a partition
// of the nodes into clusters, each cluster assigned one of O(log n) color
// classes, such that
//
//   - clusters of the same color are pairwise non-adjacent in G, and
//   - every cluster has weak diameter O(log n): its members sit within
//     G-distance Radius of a center node, with Radius ≤ ⌊log₂ n⌋.
//
// The construction is sequential deterministic ball carving. Colors are
// carved in iterations; within an iteration, seeds are scanned in ascending
// node id, and a BFS ball is grown around each seed through the nodes still
// available this iteration. The ball accepts its next BFS shell as long as
// the shell is at least as large as the ball (so the ball at least doubles
// per unit of radius, bounding the radius by log₂ n); when growth stalls the
// ball becomes a cluster of the current color and the stalling shell is
// deferred to the next iteration. Every available neighbor of a carved ball
// lands in its deferred shell, which is what makes same-color clusters
// non-adjacent; and each iteration defers strictly fewer nodes than it
// clusters, so the remainder at least halves per color and the color count is
// at most ⌊log₂ n⌋ + 1.
//
// The output is CSR-style (flat member array plus offsets, BFS order within
// each cluster) and memoized per immutable graph via DecompositionOf, exactly
// like CliqueCoverOf and SparseMasksOf. Like the graph's CSR rows, every
// per-node and per-cluster array stores int32 entries: node ids, cluster
// indices, BFS positions and radii are all below n < 2³¹. The decomposition
// also carries the sweep-schedule geometry consumed by the derandomized
// broadcast algorithm (internal/core/derand.go): per-color phase offsets and
// lengths, so a round number alone determines the unique transmitting member
// of every cluster.

// Decomposition is a deterministic network decomposition of a graph: a
// partition into clusters with colors, BFS trees, and the derived
// transmission-schedule geometry. All exported slices are read-only, and
// hold int32 entries (node ids are NodeIDs once read out).
type Decomposition struct {
	// Count is the number of clusters; Colors the number of color classes.
	Count  int
	Colors int

	// Of[u] is the cluster index of node u; Pos[u] is u's BFS visit order
	// within its cluster (0 for the center); Parent[u] is u's BFS-tree parent
	// within its cluster, -1 for centers.
	Of     []int32
	Pos    []int32
	Parent []int32

	// Color, Center and Radius are per-cluster: the color class, the ball
	// center, and the BFS radius of the ball (every member is within
	// G-distance Radius of Center).
	Color  []int32
	Center []int32
	Radius []int32

	// Flat member storage: members[memberOffs[k]:memberOffs[k+1]] lists
	// cluster k's nodes in BFS order (index i has Pos == i).
	memberOffs []int32
	members    []int32

	// Sweep-schedule geometry: a sweep of sweepLen rounds runs one phase per
	// color, phase c occupying slots [phaseOff[c], phaseOff[c]+phaseLen[c]),
	// with phaseLen[c] the largest cluster size of color c, floored at
	// ⌊log₂ n⌋+1 so the per-sweep rotation can scatter small same-color
	// clusters across distinct slots.
	phaseOff []int
	phaseLen []int
	sweepLen int
}

// decompCache memoizes BuildDecomposition per graph (see DecompositionOf).
type decompCache struct {
	once sync.Once
	d    *Decomposition
}

// DecompositionOf returns the graph's deterministic network decomposition,
// computing it on first use. Graphs are immutable, so the decomposition is
// built at most once per graph and shared by every trial that runs on it;
// epoch schedules re-key automatically because each churn revision is a
// distinct graph value.
func DecompositionOf(g *Graph) *Decomposition {
	g.decomp.once.Do(func() { g.decomp.d = BuildDecomposition(g) })
	return g.decomp.d
}

// BuildDecomposition carves the deterministic decomposition of g. The
// construction reads only the graph structure — no randomness — so repeated
// builds are identical; DecompositionOf is the memoized entry point.
//
// Availability is one int32 stamp per node. Balls are numbered in carving
// order, and a ball stamps every node its BFS visits with its number; the
// members it keeps are stamped math.MaxInt32 instead. So within a color, a
// node is available exactly while its stamp is below the color's first ball
// number: a higher stamp means clustered, deferred by an earlier ball of
// this color, or already visited by the current ball.
//
// The per-cluster arrays grow as balls are carved; once the count is known,
// each is trimmed to its size by the same slack rule as a built graph's
// rows (see fit).
func BuildDecomposition(g *Graph) *Decomposition {
	n := g.N()
	d := &Decomposition{
		Of:         make([]int32, n),
		Pos:        make([]int32, n),
		Parent:     make([]int32, n),
		memberOffs: make([]int32, 1, n/2+2),
		members:    make([]int32, 0, n),
	}
	stamp := make([]int32, n)
	for u := range stamp {
		stamp[u] = -1
	}
	queue := make([]int32, 0, n)
	remaining := n
	for color := 0; remaining > 0; color++ {
		// Ball k is numbered k; stamps below first are available this color.
		first := int32(d.Count)
		for seed := 0; seed < n; seed++ {
			if stamp[seed] >= first {
				continue
			}
			id := int32(d.Count)
			// Grow a ball around seed through this iteration's available
			// nodes. queue[lo:hi] is the outermost accepted BFS layer;
			// expanding it discovers the candidate shell queue[hi:].
			queue = append(queue[:0], int32(seed))
			stamp[seed] = id
			d.Parent[seed] = -1
			lo, hi := 0, 1
			radius := 0
			ballEnd := 1
			for {
				for i := lo; i < hi; i++ {
					u := queue[i]
					for _, v := range g.Row(int(u)) {
						if stamp[v] >= first {
							continue
						}
						stamp[v] = id
						d.Parent[v] = u
						queue = append(queue, v)
					}
				}
				shell := len(queue) - hi
				if shell == 0 {
					// Component exhausted: the whole queue is the ball.
					ballEnd = len(queue)
					break
				}
				if shell < hi {
					// Growth stalled: keep the ball, defer the shell (its
					// stamps stay at id until the next color).
					ballEnd = hi
					break
				}
				// Shell at least as large as the ball: accept it (the ball
				// at least doubles, so radius stays ≤ log₂ n) and continue.
				lo, hi = hi, len(queue)
				radius++
			}
			k := d.Count
			for pos, u := range queue[:ballEnd] {
				stamp[u] = math.MaxInt32
				d.Of[u] = int32(k)
				d.Pos[u] = int32(pos)
			}
			d.members = append(d.members, queue[:ballEnd]...)
			d.memberOffs = append(d.memberOffs, int32(len(d.members)))
			d.Color = append(d.Color, int32(color))
			d.Center = append(d.Center, int32(seed))
			d.Radius = append(d.Radius, int32(radius))
			d.Count++
			remaining -= ballEnd
		}
		d.Colors = color + 1
	}
	d.memberOffs = fit(d.memberOffs, d.Count+1)
	d.Color = fit(d.Color, d.Count)
	d.Center = fit(d.Center, d.Count)
	d.Radius = fit(d.Radius, d.Count)
	d.planSweeps(n)
	return d
}

// planSweeps derives the schedule geometry from the carved clusters. Each
// color's phase is as long as its largest cluster, so every member of every
// cluster owns at least one slot per sweep — but never shorter than the
// ⌊log₂ n⌋+1 spreading floor. The floor matters when a color class is
// dominated by small clusters: with a phase of length 1 every cluster of the
// color would transmit in the same slot every sweep, permanently colliding
// at any listener with two informed neighbors of that color (a 6×8 grid
// already exhibits this). With a longer phase, the per-sweep hashed rotation
// in Owns scatters small clusters across distinct slots, so some informed
// neighbor is eventually the unique transmitter.
func (d *Decomposition) planSweeps(n int) {
	d.phaseLen = make([]int, d.Colors)
	spread := bits.Len(uint(n))
	for c := range d.phaseLen {
		d.phaseLen[c] = spread
	}
	for k := 0; k < d.Count; k++ {
		if size, c := d.ClusterSize(k), d.Color[k]; size > d.phaseLen[c] {
			d.phaseLen[c] = size
		}
	}
	d.phaseOff = make([]int, d.Colors)
	for c := 1; c < d.Colors; c++ {
		d.phaseOff[c] = d.phaseOff[c-1] + d.phaseLen[c-1]
	}
	if d.Colors > 0 {
		d.sweepLen = d.phaseOff[d.Colors-1] + d.phaseLen[d.Colors-1]
	}
}

// Members returns cluster k's nodes in BFS order as a zero-copy read-only
// view of the int32 member array (member i has Pos == i; member 0 is the
// center).
func (d *Decomposition) Members(k int) []int32 {
	return d.members[d.memberOffs[k]:d.memberOffs[k+1]]
}

// ClusterSize returns the number of nodes in cluster k.
func (d *Decomposition) ClusterSize(k int) int {
	return int(d.memberOffs[k+1] - d.memberOffs[k])
}

// SweepLen returns the length of one full schedule sweep: the sum over
// colors of that color's phase length.
func (d *Decomposition) SweepLen() int { return d.sweepLen }

// PhaseLen returns the phase length of color c: its largest cluster size,
// floored at the ⌊log₂ n⌋+1 spreading length.
func (d *Decomposition) PhaseLen(c int) int { return d.phaseLen[c] }

// PhaseOff returns the first in-sweep slot of color c's phase.
func (d *Decomposition) PhaseOff(c int) int { return d.phaseOff[c] }

// Owns reports whether node u is its cluster's designated transmitter in
// round r of the sweep schedule. The schedule is a pure function of the
// decomposition and the round number — no coins anywhere — so any party that
// knows the graph can compute it, which is the point of the derandomized
// broadcast experiments: the adversary gains nothing at runtime that it
// could not precompute.
//
// Round r falls in sweep s = r/sweepLen at in-sweep slot t = r%sweepLen.
// During color c's phase, cluster k of color c assigns slot j to the member
// whose BFS position matches j under a per-sweep rotation: member positions
// are distinct within the phase length, so each cluster has at most one
// owner per slot, and same-color clusters are non-adjacent in G, so owners
// of one phase never collide with each other at a reliable-edge listener.
// The rotation is a hash of (sweep, cluster), which breaks the periodic
// owner alignments a fixed rotation stride would lock in across clusters
// bridged by adversarial fringe edges.
func (d *Decomposition) Owns(u NodeID, r int) bool {
	if d.sweepLen == 0 {
		return false
	}
	k := d.Of[u]
	c := d.Color[k]
	s, t := r/d.sweepLen, r%d.sweepLen
	j := t - d.phaseOff[c]
	if j < 0 || j >= d.phaseLen[c] {
		return false
	}
	m := d.phaseLen[c]
	rot := int(bitrand.Hash64(uint64(s), uint64(k)) % uint64(m))
	return (int(d.Pos[u])+rot)%m == j
}

// Validate checks every structural invariant of the decomposition against
// the graph it was built from, returning a description of the first
// violation. It is the oracle behind the property and fuzz tests:
//
//   - Of/Pos/Parent/members form a consistent partition into BFS-ordered
//     clusters whose Parent edges are G-edges pointing at earlier members;
//   - cluster sizes certify radii (size ≥ 2^Radius) and the color count is
//     at most ⌊log₂ n⌋ + 1;
//   - every member is within G-distance Radius of its cluster's center
//     (weak diameter ≤ 2·Radius);
//   - same-color clusters are pairwise non-adjacent in G;
//   - the phase geometry matches the cluster sizes.
func (d *Decomposition) Validate(g *Graph) error {
	n := g.N()
	if len(d.Of) != n || len(d.Pos) != n || len(d.Parent) != n {
		return fmt.Errorf("decomposition: per-node slice lengths %d/%d/%d, want %d",
			len(d.Of), len(d.Pos), len(d.Parent), n)
	}
	if len(d.Color) != d.Count || len(d.Center) != d.Count || len(d.Radius) != d.Count ||
		len(d.memberOffs) != d.Count+1 || len(d.members) != n {
		return fmt.Errorf("decomposition: cluster storage inconsistent: %d clusters, %d members (n=%d)",
			d.Count, len(d.members), n)
	}
	if n > 0 && d.Colors > bits.Len(uint(n)) {
		return fmt.Errorf("decomposition: %d colors exceeds the ⌊log₂ %d⌋+1 = %d bound",
			d.Colors, n, bits.Len(uint(n)))
	}
	for u := 0; u < n; u++ {
		if d.Of[u] < 0 || int(d.Of[u]) >= d.Count {
			return fmt.Errorf("decomposition: node %d has cluster %d out of range", u, d.Of[u])
		}
	}
	dist := make([]int, n)
	var bfs []int32
	for k := 0; k < d.Count; k++ {
		mem := d.Members(k)
		if len(mem) == 0 {
			return fmt.Errorf("decomposition: cluster %d is empty", k)
		}
		if d.Color[k] < 0 || int(d.Color[k]) >= d.Colors {
			return fmt.Errorf("decomposition: cluster %d has color %d out of range", k, d.Color[k])
		}
		if mem[0] != d.Center[k] {
			return fmt.Errorf("decomposition: cluster %d center %d is not member 0 (%d)", k, d.Center[k], mem[0])
		}
		if len(mem) < 1<<d.Radius[k] {
			return fmt.Errorf("decomposition: cluster %d has %d members, too few for radius %d", k, len(mem), d.Radius[k])
		}
		for i, u := range mem {
			if int(d.Of[u]) != k || int(d.Pos[u]) != i {
				return fmt.Errorf("decomposition: member %d of cluster %d has Of=%d Pos=%d, want %d/%d",
					u, k, d.Of[u], d.Pos[u], k, i)
			}
			if i == 0 {
				if d.Parent[u] != -1 {
					return fmt.Errorf("decomposition: center %d has parent %d", u, d.Parent[u])
				}
				continue
			}
			p := d.Parent[u]
			if p < 0 || int(p) >= n || int(d.Of[p]) != k || int(d.Pos[p]) >= i || !g.HasEdge(int(u), int(p)) {
				return fmt.Errorf("decomposition: member %d of cluster %d has invalid BFS parent %d", u, k, p)
			}
		}
		// Weak diameter: BFS over the full graph from the center must reach
		// every member within the recorded radius.
		for u := range dist {
			dist[u] = -1
		}
		bfs = append(bfs[:0], d.Center[k])
		dist[d.Center[k]] = 0
		for i := 0; i < len(bfs); i++ {
			u := bfs[i]
			if dist[u] >= int(d.Radius[k]) {
				continue
			}
			for _, v := range g.Row(int(u)) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					bfs = append(bfs, v)
				}
			}
		}
		for _, u := range mem {
			if dist[u] < 0 || dist[u] > int(d.Radius[k]) {
				return fmt.Errorf("decomposition: member %d of cluster %d is outside G-distance %d of center %d",
					u, k, d.Radius[k], d.Center[k])
			}
		}
	}
	// Same-color clusters must be pairwise non-adjacent in G.
	var adjErr error
	g.ForEachEdge(func(u, v NodeID) {
		if adjErr == nil && d.Of[u] != d.Of[v] && d.Color[d.Of[u]] == d.Color[d.Of[v]] {
			adjErr = fmt.Errorf("decomposition: edge (%d,%d) joins distinct clusters %d,%d of color %d",
				u, v, d.Of[u], d.Of[v], d.Color[d.Of[u]])
		}
	})
	if adjErr != nil {
		return adjErr
	}
	if len(d.phaseLen) != d.Colors || len(d.phaseOff) != d.Colors {
		return fmt.Errorf("decomposition: phase geometry has %d/%d entries, want %d",
			len(d.phaseLen), len(d.phaseOff), d.Colors)
	}
	want := make([]int, d.Colors)
	for c := range want {
		want[c] = bits.Len(uint(n))
	}
	for k := 0; k < d.Count; k++ {
		if size := d.ClusterSize(k); size > want[d.Color[k]] {
			want[d.Color[k]] = size
		}
	}
	off := 0
	for c := 0; c < d.Colors; c++ {
		if d.phaseLen[c] != want[c] {
			return fmt.Errorf("decomposition: color %d phase length %d, want %d", c, d.phaseLen[c], want[c])
		}
		if d.phaseOff[c] != off {
			return fmt.Errorf("decomposition: color %d phase offset %d, want %d", c, d.phaseOff[c], off)
		}
		off += d.phaseLen[c]
	}
	if d.sweepLen != off {
		return fmt.Errorf("decomposition: sweep length %d, want %d", d.sweepLen, off)
	}
	return nil
}
