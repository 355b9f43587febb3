package graph

import (
	"math"

	"repro/internal/bitrand"
)

// Line returns the path graph on n nodes: 0-1-2-...-(n-1).
func Line(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// Ring returns the cycle graph on n nodes.
func Ring(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	if n > 2 {
		b.AddEdge(n-1, 0)
	}
	return b.Build()
}

// Clique returns the complete graph on n nodes.
func Clique(n int) *Graph {
	b := NewBuilder(n)
	b.Grow(n * (n - 1) / 2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// Star returns the star with center 0 and n-1 leaves.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.Build()
}

// Grid returns the w×h grid graph; node (x, y) has id y*w+x.
func Grid(w, h int) *Graph {
	b := NewBuilder(w * h)
	b.Grow(2 * w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	return b.Build()
}

// DualCliqueMarkers identifies the special nodes of the dual clique network.
type DualCliqueMarkers struct {
	// TA and TB are the endpoints of the single G bridge between clique A
	// (nodes 0..n/2-1) and clique B (nodes n/2..n-1).
	TA, TB NodeID
	// SizeA is the size of clique A; clique B holds the rest.
	SizeA int
}

// InA reports whether u lies in clique A.
func (m DualCliqueMarkers) InA(u NodeID) bool { return u < m.SizeA }

// DualClique builds the Theorem 3.1 lower-bound network on n nodes (n ≥ 4,
// rounded down to even): two G-cliques A = {0..n/2-1} and B = {n/2..n-1}
// joined by the single G edge (tA, tB), with G' the complete graph. The
// bridge endpoints are chosen by the caller-supplied index t in [0, n/2):
// tA = t and tB = t + n/2, mirroring the paper's hidden-target construction.
func DualClique(n, t int) (*Dual, DualCliqueMarkers) {
	if n < 4 {
		n = 4
	}
	n -= n % 2
	half := n / 2
	if t < 0 || t >= half {
		t = 0
	}
	b := NewBuilder(n)
	b.Grow(half*(half-1) + 1)
	for i := 0; i < half; i++ {
		for j := i + 1; j < half; j++ {
			b.AddEdge(i, j)
			b.AddEdge(half+i, half+j)
		}
	}
	m := DualCliqueMarkers{TA: t, TB: t + half, SizeA: half}
	b.AddEdge(m.TA, m.TB)
	g := b.Build()
	gp := Clique(n)
	return MustDual(g, gp), m
}

// TwoCliques builds the dual clique's reliable skeleton with no unreliable
// fringe at all: two G-cliques A = {0..n/2-1} and B = {n/2..n-1} joined by
// the single bridge (n/2-1, n/2), with G' = G (n ≥ 4, rounded down to
// even). Because the base E'\E is empty, the only unreliable links that can
// ever exist are the ones a churn scenario flares up — the structure the
// ADV-churnwindow family attacks.
func TwoCliques(n int) *Dual {
	if n < 4 {
		n = 4
	}
	n -= n % 2
	half := n / 2
	b := NewBuilder(n)
	b.Grow(half*(half-1) + 1)
	for i := 0; i < half; i++ {
		for j := i + 1; j < half; j++ {
			b.AddEdge(i, j)
			b.AddEdge(half+i, half+j)
		}
	}
	b.AddEdge(half-1, half)
	return UniformDual(b.Build())
}

// BraceletMarkers identifies the structure of the bracelet network.
type BraceletMarkers struct {
	// Bands is the number of bands per side (√(n)/2 in the paper).
	Bands int
	// BandLen is the number of nodes per band (√(n)/2 in the paper).
	BandLen int
	// AHead[i] and BHead[i] are the head nodes a_i and b_i.
	AHead, BHead []NodeID
	// ClaspA and ClaspB are the endpoints a_t, b_t of the single clasp edge.
	ClaspA, ClaspB NodeID
}

// SideA reports whether u belongs to the A side.
func (m BraceletMarkers) SideA(u NodeID) bool { return u < m.Bands*m.BandLen }

// Bracelet builds the Theorem 4.3 lower-bound network. From a target size n
// it derives k = max(2, floor(sqrt(n)/2)) bands per side, each a G-line of k
// nodes. Node layout: A-side band i occupies ids [i*k, (i+1)*k), with the
// head a_i at offset 0; the B side follows symmetrically. G' adds all head
// pairs (a_i, b_j); G adds the clasp (a_t, b_t) for the hidden index t, and a
// clique over all band tails keeps G connected. The actual node count is
// 2k².
func Bracelet(n, t int) (*Dual, BraceletMarkers) {
	k := int(math.Sqrt(float64(n)) / 2)
	if k < 2 {
		k = 2
	}
	return BraceletExplicit(k, k, t)
}

// BraceletExplicit builds a bracelet with the given number of bands per side
// and band length. Exposing both parameters lets experiments decouple the
// number of G'-connected heads from the isolation depth.
func BraceletExplicit(bands, bandLen, t int) (*Dual, BraceletMarkers) {
	if bands < 1 {
		bands = 1
	}
	if bandLen < 1 {
		bandLen = 1
	}
	if t < 0 || t >= bands {
		t = 0
	}
	n := 2 * bands * bandLen
	m := BraceletMarkers{
		Bands:   bands,
		BandLen: bandLen,
		AHead:   make([]NodeID, bands),
		BHead:   make([]NodeID, bands),
	}
	aNode := func(band, off int) NodeID { return band*bandLen + off }
	bNode := func(band, off int) NodeID { return bands*bandLen + band*bandLen + off }

	gb := NewBuilder(n)
	gb.Grow(2*bands*(bandLen-1) + bands*(2*bands-1) + 1)
	tails := make([]NodeID, 0, 2*bands)
	for i := 0; i < bands; i++ {
		m.AHead[i] = aNode(i, 0)
		m.BHead[i] = bNode(i, 0)
		for off := 0; off+1 < bandLen; off++ {
			gb.AddEdge(aNode(i, off), aNode(i, off+1))
			gb.AddEdge(bNode(i, off), bNode(i, off+1))
		}
		tails = append(tails, aNode(i, bandLen-1), bNode(i, bandLen-1))
	}
	// Tail clique keeps G connected (paper: endpoints joined in a clique).
	for i := 0; i < len(tails); i++ {
		for j := i + 1; j < len(tails); j++ {
			gb.AddEdge(tails[i], tails[j])
		}
	}
	m.ClaspA, m.ClaspB = m.AHead[t], m.BHead[t]
	gb.AddEdge(m.ClaspA, m.ClaspB)
	g := gb.Build()

	gpb := NewBuilder(n)
	gpb.Grow(g.NumEdges() + bands*bands)
	g.ForEachEdge(gpb.AddEdge)
	for i := 0; i < bands; i++ {
		for j := 0; j < bands; j++ {
			gpb.AddEdge(m.AHead[i], m.BHead[j])
		}
	}
	gp := gpb.Build()
	return MustDual(g, gp), m
}

// GeographicConfig parameterizes random geographic dual graphs.
type GeographicConfig struct {
	// N is the number of nodes.
	N int
	// Side is the side length of the square deployment area.
	Side float64
	// Radius is the geographic constant r ≥ 1: pairs closer than 1 are in G,
	// pairs farther than r are not in G', pairs in between are in G' only
	// (the grey zone controlled by the adversary).
	Radius float64
	// GreyProb is the probability that a grey-zone pair (distance in (1, r])
	// is included in G' at all; 1 includes every grey pair.
	GreyProb float64
}

// Geographic samples node positions uniformly in the square and builds the
// dual graph dictated by the Section 2 constraint: G is the unit disk graph,
// G' adds grey-zone pairs at distance in (1, r]. If the resulting G is
// disconnected, positions are resampled (up to a bounded number of attempts);
// the final graph may still be disconnected for sparse configurations, which
// callers can detect with Connected.
func Geographic(src *bitrand.Source, cfg GeographicConfig) *Dual {
	if cfg.N < 1 {
		cfg.N = 1
	}
	if cfg.Radius < 1 {
		cfg.Radius = 1
	}
	if cfg.Side <= 0 {
		cfg.Side = 1
	}
	if cfg.GreyProb < 0 {
		cfg.GreyProb = 0
	}
	if cfg.GreyProb > 1 {
		cfg.GreyProb = 1
	}
	var d *Dual
	for attempt := 0; attempt < 32; attempt++ {
		pos := make([]Point, cfg.N)
		for i := range pos {
			pos[i] = Point{X: src.Float64() * cfg.Side, Y: src.Float64() * cfg.Side}
		}
		gb := NewBuilder(cfg.N)
		gpb := NewBuilder(cfg.N)
		r2 := cfg.Radius * cfg.Radius
		for u := 0; u < cfg.N; u++ {
			for v := u + 1; v < cfg.N; v++ {
				dd := dist2(pos[u], pos[v])
				switch {
				case dd <= 1:
					gb.AddEdge(u, v)
					gpb.AddEdge(u, v)
				case dd <= r2:
					if cfg.GreyProb >= 1 || src.Coin(cfg.GreyProb) {
						gpb.AddEdge(u, v)
					}
				}
			}
		}
		d = MustDual(gb.Build(), gpb.Build())
		d.SetEmbedding(pos, cfg.Radius)
		if Connected(d.G()) {
			return d
		}
	}
	return d
}

// GeographicGrid places n ≈ w*h nodes on a jittered grid with the given
// spacing (< 1 guarantees G connectivity between grid neighbors) and builds
// the unit-disk dual graph with grey zone up to radius r. Deterministic given
// the source; always connected for spacing ≤ 1/√2.
func GeographicGrid(src *bitrand.Source, w, h int, spacing, radius float64) *Dual {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	if radius < 1 {
		radius = 1
	}
	n := w * h
	pos := make([]Point, n)
	jitter := spacing * 0.2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			pos[i] = Point{
				X: float64(x)*spacing + (src.Float64()-0.5)*jitter,
				Y: float64(y)*spacing + (src.Float64()-0.5)*jitter,
			}
		}
	}
	gb := NewBuilder(n)
	gpb := NewBuilder(n)
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dd := dist2(pos[u], pos[v])
			switch {
			case dd <= 1:
				gb.AddEdge(u, v)
				gpb.AddEdge(u, v)
			case dd <= r2:
				gpb.AddEdge(u, v)
			}
		}
	}
	d := MustDual(gb.Build(), gpb.Build())
	d.SetEmbedding(pos, radius)
	return d
}

// ErdosRenyi returns G(n, p) with edges sampled independently.
func ErdosRenyi(src *bitrand.Source, n int, p float64) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if src.Coin(p) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// Circulant returns the circulant graph C_n(1..d/2): node u is adjacent to
// u±k (mod n) for k = 1..d/2, so every node has degree 2·⌊d/2⌋ (clamped
// below n). Unlike ErdosRenyi this costs O(n·d), not O(n²), which makes it
// the dense-but-buildable substrate of the SCALE experiments: diameter
// ⌈n/d⌉-ish, vertex-transitive, deterministic.
func Circulant(n, d int) *Graph {
	half := d / 2
	if half >= n/2 {
		half = (n - 1) / 2
	}
	if half < 1 {
		half = 1
	}
	b := NewBuilder(n)
	b.Grow(n * half)
	for u := 0; u < n; u++ {
		for k := 1; k <= half; k++ {
			b.AddEdge(u, (u+k)%n)
		}
	}
	return b.Build()
}

// RingChords returns a ring on n nodes augmented with the given number of
// uniformly sampled chords: connected by construction, O(n + chords) to
// build, with the small diameter of a random bounded-degree expander. This
// is the sparse large-n substrate of the SCALE experiments, where the O(n²)
// pair scans of ErdosRenyi/RandomDual are infeasible.
func RingChords(src *bitrand.Source, n, chords int) *Graph {
	b := NewBuilder(n)
	b.Grow(n + chords)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	if n > 2 {
		b.AddEdge(n-1, 0)
	}
	for i := 0; i < chords; i++ {
		// Self-loops are dropped by AddEdge and duplicates by Build, so the
		// realized chord count may fall slightly short of the request.
		b.AddEdge(src.Intn(n), src.Intn(n))
	}
	return b.Build()
}

// AugmentDual builds a dual graph whose reliable part is g and whose G' adds
// the given number of uniformly sampled non-G pairs. The direct sampling
// costs O(|E| + extra), unlike RandomDual's O(n²) pair scan; draws that land
// on an existing edge (or repeat a draw) are dropped, so the realized E'\E
// may fall slightly short of the request on dense graphs. Only the sampled
// pairs go through a Builder; each G' row is the merge of the G row and the
// sampled row, which drops the pairs G already holds, and what is left of
// the sampled rows is the dual's E'\E (see unionDual).
func AugmentDual(src *bitrand.Source, g *Graph, extra int) *Dual {
	n := g.N()
	b := NewBuilder(n)
	b.Grow(extra)
	for i := 0; i < extra; i++ {
		b.AddEdge(src.Intn(n), src.Intn(n))
	}
	return unionDual(g, b.Build())
}

// RandomDual builds a dual graph whose reliable part is the given connected
// graph and whose G' adds each non-G pair independently with probability
// extraP. Used for unstructured robustness tests.
func RandomDual(src *bitrand.Source, g *Graph, extraP float64) *Dual {
	n := g.N()
	b := NewBuilder(n)
	g.ForEachEdge(b.AddEdge)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) && src.Coin(extraP) {
				b.AddEdge(u, v)
			}
		}
	}
	return MustDual(g, b.Build())
}
