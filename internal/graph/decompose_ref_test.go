package graph

import (
	"reflect"
	"testing"

	"repro/internal/bitrand"
)

// buildDecompositionRef is the ball carving as it was written before the
// availability checks shared one stamp: three per-node arrays (Of, the
// color that deferred a node, the ball that saw it), each read for every
// neighbor. BuildDecomposition must carve exactly the same clusters.
func buildDecompositionRef(g *Graph) *Decomposition {
	n := g.N()
	d := &Decomposition{
		Of:         make([]int32, n),
		Pos:        make([]int32, n),
		Parent:     make([]int32, n),
		memberOffs: make([]int32, 1, n/2+2),
		members:    make([]int32, 0, n),
	}
	for u := 0; u < n; u++ {
		d.Of[u] = -1
		d.Parent[u] = -1
	}
	// deferredAt[u] is the color iteration that pushed u out of a stalling
	// shell; u is available in iteration c iff it is unclustered and
	// deferredAt[u] != c. seen stamps BFS visits per ball.
	deferredAt := make([]int, n)
	seen := make([]int, n)
	for u := 0; u < n; u++ {
		deferredAt[u] = -1
		seen[u] = -1
	}
	queue := make([]int32, 0, n)
	remaining := n
	ballID := 0
	for color := 0; remaining > 0; color++ {
		for seed := 0; seed < n; seed++ {
			if d.Of[seed] >= 0 || deferredAt[seed] == color {
				continue
			}
			// Grow a ball around seed through this iteration's available
			// nodes. queue[lo:hi] is the outermost accepted BFS layer;
			// expanding it discovers the candidate shell queue[hi:].
			queue = append(queue[:0], int32(seed))
			seen[seed] = ballID
			d.Parent[seed] = -1
			lo, hi := 0, 1
			radius := 0
			ballEnd := 1
			for {
				for i := lo; i < hi; i++ {
					u := queue[i]
					for _, v := range g.Row(int(u)) {
						if d.Of[v] >= 0 || deferredAt[v] == color || seen[v] == ballID {
							continue
						}
						seen[v] = ballID
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
					// Growth stalled: keep the ball, defer the shell.
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
				d.Of[u] = int32(k)
				d.Pos[u] = int32(pos)
			}
			for _, u := range queue[ballEnd:] {
				deferredAt[u] = color
			}
			d.members = append(d.members, queue[:ballEnd]...)
			d.memberOffs = append(d.memberOffs, int32(len(d.members)))
			d.Color = append(d.Color, int32(color))
			d.Center = append(d.Center, int32(seed))
			d.Radius = append(d.Radius, int32(radius))
			d.Count++
			remaining -= ballEnd
			ballID++
		}
		d.Colors = color + 1
	}
	d.planSweeps(n)
	return d
}

// TestDecompositionMatchesReference compares every field of the stamped
// carving — Of, Pos, Parent, Color, Center, Radius, the members and the
// phase geometry — with the reference loop's on ring+chords at 10⁵ nodes,
// circulants, grids, Erdős–Rényi graphs and dual cliques.
func TestDecompositionMatchesReference(t *testing.T) {
	src := bitrand.New(0xdec5)
	dc64, _ := DualClique(64, 3)
	dc256, _ := DualClique(256, 17)
	graphs := map[string]*Graph{
		"ringchords/1e5":     RingChords(src, 100000, 200000),
		"ringchords/4096":    RingChords(src, 4096, 512),
		"circulant/1000x16":  Circulant(1000, 16),
		"circulant/4096x128": Circulant(4096, 128),
		"circulant/97x4":     Circulant(97, 4),
		"grid/8x9":           Grid(8, 9),
		"grid/100x100":       Grid(100, 100),
		"erdosrenyi/300":     ErdosRenyi(src, 300, 0.02),
		"erdosrenyi/sparse":  ErdosRenyi(src, 500, 0.003),
		"dualclique/64":      dc64.G(),
		"dualclique/256":     dc256.G(),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			got, want := BuildDecomposition(g), buildDecompositionRef(g)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stamped carving differs from the reference: %d clusters in %d colors, want %d in %d",
					got.Count, got.Colors, want.Count, want.Colors)
			}
		})
	}
}
