package graph

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitrand"
)

// decompositionZoo is the builders.go substrate zoo the property suite runs
// over: the regular shapes, the paper's lower-bound topologies, geographic
// duals, and the SCALE-family substrates (circulant, ring+chords, augmented
// fringe — the fringe lives in E'\E, so the reliable graph is the base).
func decompositionZoo() map[string]*Graph {
	src := bitrand.New(0xdec0)
	dc, _ := DualClique(64, 3)
	br, _ := BraceletExplicit(6, 5, 2)
	geo := Geographic(bitrand.New(0xdec1), GeographicConfig{N: 80, Side: 5, Radius: 2, GreyProb: 0.5})
	return map[string]*Graph{
		"empty":      NewBuilder(17).Build(),
		"single":     NewBuilder(1).Build(),
		"line":       Line(64),
		"ring":       Ring(65),
		"clique":     Clique(48),
		"star":       Star(33),
		"grid":       Grid(8, 9),
		"dualclique": dc.G(),
		"twocliques": TwoCliques(48).G(),
		"bracelet":   br.G(),
		"geographic": geo.G(),
		"geogrid":    GeographicGrid(bitrand.New(0xdec2), 6, 6, 0.9, 2).G(),
		"erdosrenyi": ErdosRenyi(src, 100, 0.05),
		"circulant":  Circulant(192, 8),
		"ringchords": RingChords(src, 192, 64),
	}
}

// TestDecompositionInvariants checks every structural invariant of the
// deterministic decomposition — partition, BFS trees, weak diameter,
// same-color non-adjacency, the ⌊log₂ n⌋+1 color bound, and the phase
// geometry — across the substrate zoo, for cold builds and memo hits alike.
func TestDecompositionInvariants(t *testing.T) {
	for name, g := range decompositionZoo() {
		t.Run(name, func(t *testing.T) {
			cold := BuildDecomposition(g)
			if err := cold.Validate(g); err != nil {
				t.Fatal(err)
			}
			memo := DecompositionOf(g)
			if err := memo.Validate(g); err != nil {
				t.Fatalf("memoized build: %v", err)
			}
			if !reflect.DeepEqual(cold, memo) {
				t.Fatal("memoized decomposition differs from a cold build")
			}
			total := 0
			for k := 0; k < memo.Count; k++ {
				total += memo.ClusterSize(k)
			}
			if total != g.N() {
				t.Fatalf("clusters cover %d of %d nodes", total, g.N())
			}
		})
	}
}

// TestDecompositionDeterministic pins the byte-identical-output contract:
// repeated cold builds are deeply equal, and 64 concurrent memo readers all
// observe the same pointer (one build per graph, shared thereafter).
func TestDecompositionDeterministic(t *testing.T) {
	for name, g := range decompositionZoo() {
		t.Run(name, func(t *testing.T) {
			a, b := BuildDecomposition(g), BuildDecomposition(g)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("two cold builds differ")
			}
			ptrs := make([]*Decomposition, 64)
			var wg sync.WaitGroup
			for i := range ptrs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ptrs[i] = DecompositionOf(g)
				}(i)
			}
			wg.Wait()
			for i := 1; i < len(ptrs); i++ {
				if ptrs[i] != ptrs[0] {
					t.Fatal("concurrent memo readers observed distinct decompositions")
				}
			}
			if !reflect.DeepEqual(ptrs[0], a) {
				t.Fatal("memoized decomposition differs from a cold build")
			}
		})
	}
}

// TestDecompositionSchedule checks the sweep-schedule contract behind
// DerandBroadcast: in every sweep, each cluster designates exactly one owner
// per slot of its color's phase, every member owns exactly one slot per
// sweep, and nobody owns a slot outside its color's phase.
func TestDecompositionSchedule(t *testing.T) {
	for name, g := range decompositionZoo() {
		t.Run(name, func(t *testing.T) {
			d := DecompositionOf(g)
			if g.N() == 0 {
				return
			}
			if d.SweepLen() == 0 {
				t.Fatal("nonempty graph with zero sweep length")
			}
			owned := make([]int, g.N())
			for sweep := 0; sweep < 3; sweep++ {
				clear(owned)
				for t0 := 0; t0 < d.SweepLen(); t0++ {
					r := sweep*d.SweepLen() + t0
					for k := 0; k < d.Count; k++ {
						c := int(d.Color[k])
						owners := 0
						for _, u := range d.Members(k) {
							if d.Owns(int(u), r) {
								owners++
								owned[u]++
								if t0 < d.PhaseOff(c) || t0 >= d.PhaseOff(c)+d.PhaseLen(c) {
									t.Fatalf("node %d owns slot %d outside color %d's phase", u, t0, c)
								}
							}
						}
						if owners > 1 {
							t.Fatalf("cluster %d has %d owners in round %d", k, owners, r)
						}
					}
				}
				for u, c := range owned {
					if c != 1 {
						t.Fatalf("sweep %d: node %d owns %d slots, want exactly 1", sweep, u, c)
					}
				}
			}
		})
	}
}

// FuzzDecomposition builds an arbitrary Builder graph from the fuzzed seed
// and checks the full invariant set, build-twice determinism and equality
// with the reference carving. Styles mix the random-edge soup with
// structured substrates so the corpus covers both.
func FuzzDecomposition(f *testing.F) {
	f.Add(uint64(1), uint16(16), uint16(32), uint8(0))
	f.Add(uint64(2), uint16(64), uint16(64), uint8(1))
	f.Add(uint64(3), uint16(9), uint16(0), uint8(2))
	f.Add(uint64(4), uint16(33), uint16(80), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, n, edges uint16, style uint8) {
		nn := int(n)%256 + 1
		src := bitrand.New(seed)
		var g *Graph
		switch style % 4 {
		case 0:
			b := NewBuilder(nn)
			for i := 0; i < int(edges)%1024; i++ {
				b.AddEdge(src.Intn(nn), src.Intn(nn))
			}
			g = b.Build()
		case 1:
			g = Circulant(nn, 2+int(edges)%8)
		case 2:
			g = ErdosRenyi(src, nn, float64(edges%100)/100)
		default:
			g = RingChords(src, nn, int(edges)%64)
		}
		d := BuildDecomposition(g)
		if err := d.Validate(g); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d, BuildDecomposition(g)) {
			t.Fatal("decomposition is not deterministic")
		}
		if !reflect.DeepEqual(d, buildDecompositionRef(g)) {
			t.Fatal("decomposition differs from the reference carving")
		}
	})
}
