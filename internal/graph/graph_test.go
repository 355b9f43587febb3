package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/bitrand"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate
	b.AddEdge(2, 2) // self loop ignored
	b.AddEdge(-1, 3)
	b.AddEdge(3, 7) // out of range ignored
	b.AddEdge(2, 3)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(3, 2) {
		t.Fatal("expected edges missing")
	}
	if g.HasEdge(0, 2) || g.HasEdge(2, 2) || g.HasEdge(0, 9) {
		t.Fatal("unexpected edges present")
	}
	if g.Degree(1) != 1 || g.Degree(2) != 1 {
		t.Fatal("bad degrees")
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(3, 5)
	b.AddEdge(3, 1)
	b.AddEdge(3, 4)
	b.AddEdge(3, 0)
	g := b.Build()
	ns := g.Row(3)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("neighbors not sorted: %v", ns)
		}
	}
}

func TestLineRingCliqueStarGrid(t *testing.T) {
	if g := Line(5); g.NumEdges() != 4 || Diameter(g) != 4 {
		t.Fatalf("Line(5): edges=%d diam=%d", g.NumEdges(), Diameter(g))
	}
	if g := Ring(6); g.NumEdges() != 6 || Diameter(g) != 3 {
		t.Fatalf("Ring(6): edges=%d diam=%d", g.NumEdges(), Diameter(g))
	}
	if g := Clique(7); g.NumEdges() != 21 || Diameter(g) != 1 || g.MaxDegree() != 6 {
		t.Fatal("Clique(7) malformed")
	}
	if g := Star(9); g.NumEdges() != 8 || g.Degree(0) != 8 || Diameter(g) != 2 {
		t.Fatal("Star(9) malformed")
	}
	if g := Grid(4, 3); g.NumEdges() != 3*3+4*2 || Diameter(g) != 5 {
		t.Fatalf("Grid(4,3): edges=%d diam=%d", g.NumEdges(), Diameter(g))
	}
}

func TestNewDualSubsetCheck(t *testing.T) {
	g := Line(4)
	gp := Line(4)
	if _, err := NewDual(g, gp); err != nil {
		t.Fatalf("identical graphs rejected: %v", err)
	}
	// G has an edge G' lacks.
	gb := NewBuilder(4)
	gb.AddEdge(0, 3)
	bad := gb.Build()
	if _, err := NewDual(bad, gp); err == nil {
		t.Fatal("E ⊄ E' not detected")
	}
	// Vertex count mismatch.
	if _, err := NewDual(Line(3), Line(4)); err == nil {
		t.Fatal("vertex count mismatch not detected")
	}
}

func TestDualExtraNeighbors(t *testing.T) {
	g := Line(4) // 0-1-2-3
	gpb := NewBuilder(4)
	g.ForEachEdge(gpb.AddEdge)
	gpb.AddEdge(0, 2)
	gpb.AddEdge(0, 3)
	d := MustDual(g, gpb.Build())
	if got := d.NumExtraEdges(); got != 2 {
		t.Fatalf("NumExtraEdges = %d, want 2", got)
	}
	ex := d.ExtraRow(0)
	if len(ex) != 2 || ex[0] != 2 || ex[1] != 3 {
		t.Fatalf("ExtraRow(0) = %v", ex)
	}
	if len(d.ExtraRow(1)) != 0 {
		t.Fatal("node 1 should have no extra neighbors")
	}
}

func TestUniformDual(t *testing.T) {
	d := UniformDual(Clique(5))
	if d.NumExtraEdges() != 0 || !d.UnionComplete() {
		t.Fatal("UniformDual(Clique) malformed")
	}
	d2 := UniformDual(Line(5))
	if d2.UnionComplete() {
		t.Fatal("line is not complete")
	}
}

func TestDualClique(t *testing.T) {
	d, m := DualClique(16, 3)
	if d.N() != 16 || m.SizeA != 8 || m.TA != 3 || m.TB != 11 {
		t.Fatalf("markers: %+v", m)
	}
	if !d.G().HasEdge(m.TA, m.TB) {
		t.Fatal("bridge missing in G")
	}
	if !d.UnionComplete() {
		t.Fatal("G' must be complete")
	}
	if !Connected(d.G()) {
		t.Fatal("G must be connected")
	}
	if diam := Diameter(d.G()); diam != 3 {
		t.Fatalf("dual clique diameter = %d, want 3", diam)
	}
	// Within-clique edges reliable, cross edges (except bridge) unreliable.
	if !d.G().HasEdge(0, 1) || d.G().HasEdge(0, 9) {
		t.Fatal("clique structure wrong")
	}
	// Counting: extra edges = n/2*n/2 - 1 cross pairs.
	if got, want := d.NumExtraEdges(), 8*8-1; got != want {
		t.Fatalf("extra edges = %d, want %d", got, want)
	}
}

func TestDualCliqueDefaults(t *testing.T) {
	d, m := DualClique(3, 99) // n too small, t out of range
	if d.N() != 4 || m.TA != 0 {
		t.Fatalf("defaults not applied: n=%d m=%+v", d.N(), m)
	}
}

func TestBracelet(t *testing.T) {
	d, m := Bracelet(64, 1) // k = 4 bands of length 4 per side
	if m.Bands != 4 || m.BandLen != 4 {
		t.Fatalf("bracelet shape: %+v", m)
	}
	if d.N() != 2*4*4 {
		t.Fatalf("N = %d, want 32", d.N())
	}
	if !Connected(d.G()) {
		t.Fatal("bracelet G must be connected")
	}
	if !d.G().HasEdge(m.ClaspA, m.ClaspB) {
		t.Fatal("clasp missing")
	}
	// Heads fully connected in G' across sides.
	for i := 0; i < m.Bands; i++ {
		for j := 0; j < m.Bands; j++ {
			if !d.GPrime().HasEdge(m.AHead[i], m.BHead[j]) {
				t.Fatalf("G' head edge (%d,%d) missing", m.AHead[i], m.BHead[j])
			}
		}
	}
	// Heads not G-connected except the clasp.
	for i := 0; i < m.Bands; i++ {
		for j := 0; j < m.Bands; j++ {
			hasG := d.G().HasEdge(m.AHead[i], m.BHead[j])
			isClasp := m.AHead[i] == m.ClaspA && m.BHead[j] == m.ClaspB
			if hasG != isClasp {
				t.Fatalf("G head edge (%d,%d): got %v, clasp %v", m.AHead[i], m.BHead[j], hasG, isClasp)
			}
		}
	}
	if d.UnionComplete() {
		t.Fatal("bracelet G' must not be complete")
	}
}

func TestBraceletExplicitSmall(t *testing.T) {
	d, m := BraceletExplicit(1, 1, 0)
	if d.N() != 2 || !Connected(d.G()) {
		t.Fatal("degenerate bracelet must still be a valid connected dual graph")
	}
	if !d.G().HasEdge(m.ClaspA, m.ClaspB) {
		t.Fatal("clasp missing in degenerate bracelet")
	}
}

func TestGeographicValidates(t *testing.T) {
	src := bitrand.New(123)
	d := Geographic(src, GeographicConfig{N: 60, Side: 4, Radius: 2, GreyProb: 1})
	if err := d.ValidateGeographic(); err != nil {
		t.Fatalf("geographic constraint violated: %v", err)
	}
	if !d.Geographic() {
		t.Fatal("embedding missing")
	}
}

func TestGeographicGridConnectedAndValid(t *testing.T) {
	src := bitrand.New(5)
	d := GeographicGrid(src, 6, 5, 0.7, 1.5)
	if d.N() != 30 {
		t.Fatalf("N = %d", d.N())
	}
	if !Connected(d.G()) {
		t.Fatal("grid geo graph must be connected at spacing 0.7")
	}
	if err := d.ValidateGeographic(); err != nil {
		t.Fatalf("constraint violated: %v", err)
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	src := bitrand.New(9)
	if g := ErdosRenyi(src, 10, 0); g.NumEdges() != 0 {
		t.Fatal("p=0 must give empty graph")
	}
	if g := ErdosRenyi(src, 10, 1); g.NumEdges() != 45 {
		t.Fatal("p=1 must give complete graph")
	}
}

func TestRandomDualSubset(t *testing.T) {
	src := bitrand.New(10)
	g := Ring(20)
	d := RandomDual(src, g, 0.3)
	// Every G edge must be in G'.
	g.ForEachEdge(func(u, v NodeID) {
		if !d.GPrime().HasEdge(u, v) {
			t.Fatalf("G edge (%d,%d) missing from G'", u, v)
		}
	})
}

func TestDualSubsetPropertyQuick(t *testing.T) {
	src := bitrand.New(77)
	err := quick.Check(func(seed uint32, raw uint8) bool {
		n := int(raw%30) + 2
		s := src.Split(uint64(seed))
		g := ErdosRenyi(s, n, 0.3)
		d := RandomDual(s, g, 0.4)
		// Invariant: extra adjacency is disjoint from G adjacency and
		// contained in G'.
		for u := 0; u < n; u++ {
			for _, v := range d.ExtraNeighbors(u) {
				if d.G().HasEdge(u, v) || !d.GPrime().HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}
