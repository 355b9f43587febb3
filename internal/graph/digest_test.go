package graph_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// arrayDigest hashes integer arrays as a length followed by the elements,
// each a little-endian int64, so a digest is the same on every platform
// whatever the width of int.
type arrayDigest struct {
	h   hash.Hash
	buf []byte
}

func newArrayDigest() *arrayDigest { return &arrayDigest{h: sha256.New()} }

func (d *arrayDigest) int(x int) { d.h.Write(binary.LittleEndian.AppendUint64(nil, uint64(int64(x)))) }

func digestInts[T ~int | ~int32](d *arrayDigest, xs []T) {
	d.int(len(xs))
	d.buf = d.buf[:0]
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(int64(x)))
		if len(d.buf) >= 1<<16 {
			d.h.Write(d.buf)
			d.buf = d.buf[:0]
		}
	}
	d.h.Write(d.buf)
}

func (d *arrayDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestDual adds the CSR arrays of G, G′ and E′∖E.
func digestDual(d *arrayDigest, net *graph.Dual) {
	for _, g := range []*graph.Graph{net.G(), net.GPrime()} {
		offs, adj := g.CSR()
		digestInts(d, offs)
		digestInts(d, adj)
	}
	offs, adj := net.ExtraCSR()
	digestInts(d, offs)
	digestInts(d, adj)
}

// digestDecomposition adds every field of a decomposition: the per-node and
// per-cluster arrays, the members in cluster order, and the phase geometry.
func digestDecomposition(d *arrayDigest, dc *graph.Decomposition) {
	d.int(dc.Count)
	d.int(dc.Colors)
	digestInts(d, dc.Of)
	digestInts(d, dc.Pos)
	digestInts(d, dc.Parent)
	digestInts(d, dc.Color)
	digestInts(d, dc.Center)
	digestInts(d, dc.Radius)
	for k := 0; k < dc.Count; k++ {
		digestInts(d, dc.Members(k))
	}
	for c := 0; c < dc.Colors; c++ {
		d.int(dc.PhaseOff(c))
		d.int(dc.PhaseLen(c))
	}
	d.int(dc.SweepLen())
}

// circ1e4 and rc1e5 are the engine benchmark's dense and sparse substrates:
// a degree-512 circulant and a ring with 2n chords, each with a sampled
// E′∖E fringe drawn from the same source that drew the chords.
func circ1e4() *graph.Dual {
	return graph.AugmentDual(bitrand.New(0x5ca1e04), graph.Circulant(10000, 512), 20000)
}

func rc1e5() *graph.Dual {
	src := bitrand.New(0x5ca1e05)
	return graph.AugmentDual(src, graph.RingChords(src, 100000, 200000), 100000)
}

// stormScenario is ADV-churnwindow's storm timeline on graph.TwoCliques(n)
// (see lazyStorm in internal/experiments): ten storm epochs of 6n transient
// unreliable pairs and eight demotions each, then a healing epoch.
func stormScenario(n int) (scenario.Scenario, error) {
	return scenario.Generate(graph.TwoCliques(n), bitrand.New(3000+uint64(n)), scenario.GenConfig{
		Epochs:    10,
		EpochLen:  2 * bitrand.LogN(n),
		Demotions: 8,
		Storms:    6 * n,
		Protected: []graph.NodeID{0},
		MaxRounds: 400 * n,
	})
}

// TestSubstrateDigests pins the bytes of the substrates the benchmarks and
// the churn experiments run on: the CSR arrays of circ1e4 and rc1e5 and the
// decompositions of their reliable graphs, and the CSR arrays of every epoch
// network of the n = 64 storm scenario. Any change to Builder, AugmentDual,
// BuildDecomposition or Revision.Apply that moves one entry fails here.
func TestSubstrateDigests(t *testing.T) {
	circ, rc := circ1e4(), rc1e5()
	cases := []struct {
		name string
		fill func(*arrayDigest)
		want string
	}{
		{"circ1e4", func(d *arrayDigest) { digestDual(d, circ) }, "062d6619307be77fcb4ae354ffe80e11ec0e6065a9b33a5f6c2c63b69f710425"},
		{"circ1e4/decomposition", func(d *arrayDigest) { digestDecomposition(d, graph.BuildDecomposition(circ.G())) }, "30219b26d61065bf20d00a144e773769a247d3e5c264a712b0e27cb9503a1f28"},
		{"rc1e5", func(d *arrayDigest) { digestDual(d, rc) }, "39c15c537459a76500b45bef6b314d9d5e876d28edc0e60e09dd022eea9aa784"},
		{"rc1e5/decomposition", func(d *arrayDigest) { digestDecomposition(d, graph.BuildDecomposition(rc.G())) }, "478fec37ed3cee01d14ae8488205a5eb3781c050152cc20cc0f5a41bed82cf9b"},
		{"storm64", func(d *arrayDigest) {
			sc, err := stormScenario(64)
			if err != nil {
				t.Fatal(err)
			}
			epochs, err := sc.Compile()
			if err != nil {
				t.Fatal(err)
			}
			d.int(len(epochs))
			for _, ep := range epochs {
				d.int(ep.Start)
				digestDual(d, ep.Net)
			}
		}, "4daa8ae29a2ac25534baa4412d4d4488f29cd4c902b69aed9efe0ca49ccd581a"},
	}
	for _, c := range cases {
		d := newArrayDigest()
		c.fill(d)
		if got := d.sum(); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
