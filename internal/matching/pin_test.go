package matching

import (
	"encoding/binary"
	"hash/fnv"
	"math/bits"
	"slices"
	"testing"

	"clustercolor/internal/coloring"
	"clustercolor/internal/graph"
)

// TestFingerprintMatchingPinned pins FingerprintMatching's output across
// refactors: an FNV-64a hash over the returned pairs and the cost model's
// rounds, total bits and peak payload, on planted cabals across seeds,
// member orders, a cabal that is a strict subset of H, and a scan cut short
// by TargetPairs. The returned member-index pairs are hashed as vertex
// ids. The hashes were recorded on the int16 fingerprint implementation;
// any change to the draws, the tie handling, the min-wise picks or the
// charged payload moves them.
func TestFingerprintMatchingPinned(t *testing.T) {
	planted := func(n, pairs int) func(t *testing.T) (*graph.Graph, []int) {
		return func(t *testing.T) (*graph.Graph, []int) {
			return denseWithAntiEdges(t, n, pairs), irange(0, n)
		}
	}
	cases := []struct {
		name   string
		build  func(t *testing.T) (*graph.Graph, []int)
		trials int
		target int
		seeds  []uint64
		want   uint64
	}{
		{name: "planted80", build: planted(80, 6), trials: 12 * bits.Len(uint(80)), seeds: []uint64{9, 21, 33}, want: 0xcdc9aed145a614a5},
		{name: "ring60", build: planted(60, 3), trials: 140, seeds: []uint64{1, 2}, want: 0xa5a513c594215e29},
		{name: "reversed100", build: func(t *testing.T) (*graph.Graph, []int) {
			members := irange(0, 100)
			slices.Reverse(members)
			return denseWithAntiEdges(t, 100, 12), members
		}, trials: 70, seeds: []uint64{5, 6}, want: 0xde5be338d2d5c2cf},
		{name: "subset", build: func(t *testing.T) (*graph.Graph, []int) {
			h, blocks, err := graph.PlantedACD(graph.PlantedACDSpec{
				NumCliques: 3, CliqueSize: 40, DropFraction: 0.02, ExternalDegree: 3,
			}, graph.NewRand(17))
			if err != nil {
				t.Fatal(err)
			}
			var members []int
			for v, b := range blocks {
				if b == 1 {
					members = append(members, v)
				}
			}
			return h, members
		}, trials: 96, seeds: []uint64{3, 4}, want: 0xb2ceb246844f4724},
		{name: "target", build: planted(60, 12), trials: 90, target: 2, seeds: []uint64{13, 14}, want: 0x2e0d5c88a5635754},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := fnv.New64a()
			var buf [8]byte
			put := func(x int64) {
				binary.LittleEndian.PutUint64(buf[:], uint64(x))
				h.Write(buf[:])
			}
			g, members := tc.build(t)
			for _, seed := range tc.seeds {
				cg := testCG(t, g)
				v := viewOf(t, cg, coloring.New(g.N(), g.MaxDegree()), members)
				pairs, err := FingerprintMatching(v, FingerprintOptions{
					Phase:       "pin",
					Members:     irange(0, len(members)),
					Trials:      tc.trials,
					TargetPairs: tc.target,
				}, graph.NewRand(seed))
				if err != nil {
					t.Fatal(err)
				}
				if tc.target > 0 && len(pairs) > tc.target {
					t.Fatalf("seed %d: %d pairs past TargetPairs %d", seed, len(pairs), tc.target)
				}
				put(int64(len(pairs)))
				for _, p := range pairs {
					put(int64(members[p[0]]))
					put(int64(members[p[1]]))
				}
				put(cg.Cost().Rounds())
				put(cg.Cost().TotalBits())
				put(int64(cg.Cost().MaxPayload()))
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("hash %#016x, want %#016x", got, tc.want)
			}
		})
	}
}
