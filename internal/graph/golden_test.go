package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"clustercolor/internal/parwork"
)

// csrFingerprint is an FNV-64a hash of a graph's full CSR layout: N, M and
// MaxDegree, then every offset and every neighbor (little-endian). It pins
// the bytes a consumer reads, not only the edge set, so a change to the
// generators' draws or to the builder's layout both show.
func csrFingerprint(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range []int{g.N(), g.M(), g.MaxDegree()} {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, arr := range [][]int32{g.offsets, g.nbrs} {
		for _, x := range arr {
			binary.LittleEndian.PutUint32(buf[:4], uint32(x))
			h.Write(buf[:4])
		}
	}
	return h.Sum64()
}

// TestGoldenGeneratorCSR pins generated instances at sizes where rows are
// long and arrive in every order the builder sees: in row order (GNP,
// RingOfCliques' cliques), in random order (PlantedACD's external edges,
// BarabasiAlbert, RandomGeometric, RandomRegular) and with duplicates
// (PlantedACD's repeated external draws). The Color goldens pin the same
// generators only at a few hundred vertices.
func TestGoldenGeneratorCSR(t *testing.T) {
	cases := []struct {
		name string
		gen  func() (*Graph, error)
		want uint64 // a mismatch failure prints the repin value
	}{
		{"gnp/n1e5/deg64", func() (*Graph, error) {
			// GNP's draw contract at scale: the caller's next rng value is
			// the serial loop's (recorded with the loop GNP had before its
			// skips went parallel, kept as referenceGNPPairs).
			rng := NewRand(3)
			g, err := GNP(100_000, 64/100_000.0, rng)
			if next := rng.Uint64(); err == nil && next != 0xfabdf3fcfa9d6c2f {
				err = fmt.Errorf("next rng value %#x after GNP, want 0xfabdf3fcfa9d6c2f", next)
			}
			return g, err
		}, 0x16be07d34c911a63},
		{"planted-high", func() (*Graph, error) {
			spec := PlantedACDSpec{NumCliques: 20, CliqueSize: 150, DropFraction: 0.05, ExternalDegree: 8, SparseN: 2000, SparseP: 0.01}
			g, _, err := PlantedACD(spec, NewRand(3))
			return g, err
		}, 0x8a785dcbc079ef65},
		{"ringcliques/200x60", func() (*Graph, error) {
			return RingOfCliques(200, 60)
		}, 0x6926e01c34b79b96},
		{"ba/n1e5/attach5", func() (*Graph, error) {
			return BarabasiAlbert(100_000, 5, NewRand(3))
		}, 0x336c4e353526838b},
		{"geometric/n1e5/deg10", func() (*Graph, error) {
			g, _, err := RandomGeometric(100_000, math.Sqrt(10/(math.Pi*100_000)), NewRand(3))
			return g, err
		}, 0x6a154a038c2858d2},
		{"regular/n1e4/d10", func() (*Graph, error) {
			return RandomRegular(10_000, 10, NewRand(3))
		}, 0x5454acdf8092ea50},
	}
	// GNP's sampler and Build split their work by parwork.Parallelism(): the
	// bytes must not move with it.
	defer parwork.SetParallelism(parwork.Parallelism())
	for _, par := range []int{parwork.Parallelism(), 1, 3} {
		parwork.SetParallelism(par)
		for _, c := range cases {
			g, err := c.gen()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := csrFingerprint(g); got != c.want {
				t.Errorf("%s at parallelism %d: CSR fingerprint %#x, want %#x (N=%d M=%d Δ=%d)", c.name, par, got, c.want, g.N(), g.M(), g.MaxDegree())
			}
		}
	}
}
