package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// referenceBuild is the sort-based construction Build replaced: sort the
// packed pairs globally, drop duplicates in one scan, and scatter the
// survivors, whose lexicographic order already sorts every row. FuzzBuilder
// requires Build's counting scatter to produce the same CSR.
func referenceBuild(n int, pairs []uint64) *Graph {
	edges := slices.Clone(pairs)
	slices.Sort(edges)
	edges = slices.Compact(edges)
	offsets := make([]int32, n+1)
	for _, e := range edges {
		offsets[e>>32+1]++
		offsets[uint32(e)+1]++
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, int(offsets[v+1]))
		offsets[v+1] += offsets[v]
	}
	cursor := slices.Clone(offsets[:n])
	nbrs := make([]int32, 2*len(edges))
	for _, e := range edges {
		u, v := int32(e>>32), int32(uint32(e))
		nbrs[cursor[u]] = v
		cursor[u]++
		nbrs[cursor[v]] = u
		cursor[v]++
	}
	return &Graph{offsets: offsets, nbrs: nbrs, m: len(edges), maxDeg: maxDeg}
}

// referenceGNPPairs is the serial skip sampler gnpSample replaced, kept
// verbatim: one rng.Float64() per edge plus the terminating draw, the skip
// math.Floor(math.Log1p(-u)/logq), and visit(v, w) in row order. FuzzGNP and
// TestGNPMatchesReference require gnpSample to emit the same sequence and
// leave rng at the same position.
func referenceGNPPairs(n int, p float64, rng *rand.Rand, visit func(v, w int) error) error {
	if n < 2 || p == 0 {
		return nil
	}
	if p == 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if err := visit(v, u); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Batagelj–Brandes: enumerate pairs (v, w), w < v, in row order and skip
	// ahead Geometric(p) positions between successes.
	logq := math.Log1p(-p)
	pairs := float64(n) * float64(n) // loose bound on remaining positions
	v, w := 1, -1
	for v < n {
		skip := math.Floor(math.Log1p(-rng.Float64()) / logq)
		if skip >= pairs {
			break // jumped past every remaining pair
		}
		w += 1 + int(skip)
		for v < n && w >= v {
			w -= v
			v++
		}
		if v < n {
			if err := visit(v, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// gnpRun is one G(n, p) sample: the packed pair sequence in emission order,
// the built graph, and the rng's next Uint64 after the sampler returned.
type gnpRun struct {
	seq  []uint64
	g    *Graph
	next uint64
}

// referenceGNP samples G(n, p) with the reference loop and builds it with
// the sort-based reference.
func referenceGNP(t *testing.T, n int, p float64, seed uint64) gnpRun {
	t.Helper()
	rng := NewRand(seed)
	var seq []uint64
	if err := referenceGNPPairs(n, p, rng, func(v, w int) error {
		seq = append(seq, uint64(w)<<32|uint64(v))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return gnpRun{seq: seq, g: referenceBuild(n, seq), next: rng.Uint64()}
}

// sampleGNP samples G(n, p) the way gnpInto does, at a forced worker count
// and chunk size, and builds it on the same number of workers. Build only
// reads the pair log, so it doubles as the emitted sequence.
func sampleGNP(t *testing.T, n int, p float64, seed uint64, workers, chunk int) gnpRun {
	t.Helper()
	rng := NewRand(seed)
	b := NewBuilder(n)
	if err := gnpSample(n, p, rng, workers, chunk, func(pairs []uint64) error {
		return b.addPairs(pairs, 0)
	}); err != nil {
		t.Fatal(err)
	}
	seq := b.edges
	return gnpRun{seq: seq, g: b.build(workers), next: rng.Uint64()}
}

// equalGNPRun fails unless got emitted want's pair sequence, built its CSR
// and left the rng where the reference left it.
func equalGNPRun(t *testing.T, label string, want, got gnpRun) {
	t.Helper()
	if !slices.Equal(want.seq, got.seq) {
		i := 0
		for i < min(len(want.seq), len(got.seq)) && want.seq[i] == got.seq[i] {
			i++
		}
		t.Fatalf("%s: %d pairs, reference %d; first difference at pair %d", label, len(got.seq), len(want.seq), i)
	}
	equalCSR(t, label, want.g, got.g)
	if got.next != want.next {
		t.Fatalf("%s: next rng value %#x, reference %#x", label, got.next, want.next)
	}
}

// equalCSR fails unless got has want's exact CSR: offsets, neighbors, M and
// MaxDegree, with no slack capacity in the neighbor array.
func equalCSR(t *testing.T, label string, want, got *Graph) {
	t.Helper()
	if !slices.Equal(want.offsets, got.offsets) || !slices.Equal(want.nbrs, got.nbrs) {
		t.Fatalf("%s: CSR differs from the reference:\noffsets %v\n   want %v\nnbrs %v\nwant %v", label, got.offsets, want.offsets, got.nbrs, want.nbrs)
	}
	if got.M() != want.M() || got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("%s: M, Δ = %d, %d; reference %d, %d", label, got.M(), got.MaxDegree(), want.M(), want.MaxDegree())
	}
	if cap(got.nbrs) != len(got.nbrs) {
		t.Fatalf("%s: neighbor array holds %d slack slots", label, cap(got.nbrs)-len(got.nbrs))
	}
}

// FuzzBuilder round-trips arbitrary edge lists through the CSR builder: for
// any byte string interpreted as (n, edge pairs), the built graph must be
// simple and symmetric with sorted deduplicated adjacency, every accepted
// edge must be present, and the CSR must equal the sort-based reference's,
// whether the accepted edges arrive forwards or reversed.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{3, 0, 1, 0, 1, 1, 0}) // duplicates + reversed duplicate
	f.Add([]byte{2, 0, 0})             // self-loop (rejected by AddEdge)
	f.Add([]byte{16, 250, 1, 3, 200})  // out-of-range endpoints

	f.Add([]byte{5, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1})                   // row 0 arrives descending
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 0, 1, 1, 2, 2, 3})             // every edge twice
	f.Add([]byte{7, 7, 3, 7, 0, 7, 5, 7, 1, 7, 6, 7, 2, 7, 4, 3, 7}) // star, centre the larger endpoint
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%64) + 1
		b := NewBuilder(n)
		type edge struct{ u, v int }
		accepted := make(map[edge]bool)
		var pairs []uint64 // accepted edges in arrival order, packed lo<<32 | hi
		for i := 1; i+1 < len(data) && i < 256; i += 2 {
			u, v := int(data[i]), int(data[i+1])
			err := b.AddEdge(u, v)
			switch {
			case u == v || u >= n || v >= n:
				if err == nil {
					t.Fatalf("AddEdge(%d,%d) with n=%d accepted invalid edge", u, v, n)
				}
			case err != nil:
				t.Fatalf("AddEdge(%d,%d) with n=%d rejected valid edge: %v", u, v, n, err)
			default:
				if u > v {
					u, v = v, u
				}
				accepted[edge{u, v}] = true
				pairs = append(pairs, uint64(u)<<32|uint64(v))
			}
		}
		g := b.Build()
		if g.N() != n {
			t.Fatalf("built %d vertices, want %d", g.N(), n)
		}
		if g.M() != len(accepted) {
			t.Fatalf("built %d edges, accepted %d distinct", g.M(), len(accepted))
		}
		degSum := 0
		for v := 0; v < n; v++ {
			nbrs := g.Neighbors(v)
			degSum += len(nbrs)
			for i, u := range nbrs {
				if int(u) == v {
					t.Fatalf("vertex %d adjacent to itself", v)
				}
				if i > 0 && nbrs[i-1] >= u {
					t.Fatalf("vertex %d adjacency not strictly sorted: %v", v, nbrs)
				}
				uu, vv := v, int(u)
				if uu > vv {
					uu, vv = vv, uu
				}
				if !accepted[edge{uu, vv}] {
					t.Fatalf("edge {%d,%d} in graph but never accepted", uu, vv)
				}
				if !g.HasEdge(int(u), v) {
					t.Fatalf("edge {%d,%d} not symmetric", v, u)
				}
			}
			if len(nbrs) > g.MaxDegree() {
				t.Fatalf("vertex %d degree %d exceeds MaxDegree %d", v, len(nbrs), g.MaxDegree())
			}
		}
		if degSum != 2*g.M() {
			t.Fatalf("degree sum %d, want 2·M = %d", degSum, 2*g.M())
		}
		for e := range accepted {
			if !g.HasEdge(e.u, e.v) {
				t.Fatalf("accepted edge {%d,%d} missing from graph", e.u, e.v)
			}
		}
		want := referenceBuild(n, pairs)
		equalCSR(t, "forward", want, g)
		reversed := slices.Clone(pairs)
		slices.Reverse(reversed)
		for _, workers := range []int{1, 2, 3, 7} {
			for _, order := range []struct {
				name  string
				pairs []uint64
			}{{"forward", pairs}, {"reversed", reversed}} {
				rb := NewBuilder(n)
				for _, e := range order.pairs {
					if err := rb.AddEdge(int(e>>32), int(uint32(e))); err != nil {
						t.Fatal(err)
					}
				}
				equalCSR(t, fmt.Sprintf("%s, %d workers", order.name, workers), want, rb.build(workers))
			}
		}
	})
}

// FuzzGNP pins the skip sampler's draw contract against the serial
// reference loop: for n in [0, 400], p decoded to reach 0, 1, 1e-12, 1/n²,
// 0.5, 1 − 1e-9 or any double in [0, 1), and a free seed, every forced
// worker count and chunk size — and the production GNP and gnpPairs — must
// emit the reference's pair sequence, build its CSR and leave the rng at
// the reference's next value. Chunks of 1, 2 and 7 draws put chunk ends
// and the possibly terminating last draw everywhere.
func FuzzGNP(f *testing.F) {
	f.Add(uint16(0), uint8(4), uint64(0), uint64(1))
	f.Add(uint16(2), uint8(4), uint64(0), uint64(2))
	f.Add(uint16(40), uint8(0), uint64(0), uint64(3))
	f.Add(uint16(40), uint8(1), uint64(0), uint64(4))
	f.Add(uint16(400), uint8(2), uint64(0), uint64(5))
	f.Add(uint16(400), uint8(3), uint64(0), uint64(6))
	f.Add(uint16(120), uint8(4), uint64(0), uint64(7))
	f.Add(uint16(150), uint8(5), uint64(0), uint64(8))
	f.Add(uint16(300), uint8(6), uint64(1)<<60, uint64(9))
	f.Add(uint16(33), uint8(6), uint64(0xffffffffffffffff), uint64(10))
	f.Fuzz(func(t *testing.T, nRaw uint16, pSel uint8, pBits, seed uint64) {
		n := int(nRaw % 401)
		var p float64
		switch pSel % 7 {
		case 0:
			p = 0
		case 1:
			p = 1
		case 2:
			p = 1e-12
		case 3:
			p = 1 / float64(max(n, 1)*max(n, 1))
		case 4:
			p = 0.5
		case 5:
			p = 1 - 1e-9
		default:
			p = float64(pBits>>11) / (1 << 53)
		}
		want := referenceGNP(t, n, p, seed)
		for _, workers := range []int{1, 2, 3} {
			for _, chunk := range []int{1, 2, 7} {
				equalGNPRun(t, fmt.Sprintf("n=%d p=%v: %d workers, chunk %d", n, p, workers, chunk), want, sampleGNP(t, n, p, seed, workers, chunk))
			}
		}
		rng := NewRand(seed)
		g, err := GNP(n, p, rng)
		if err != nil {
			t.Fatal(err)
		}
		equalGNPRun(t, fmt.Sprintf("n=%d p=%v: GNP", n, p), want, gnpRun{seq: want.seq, g: g, next: rng.Uint64()})
		rng = NewRand(seed)
		var seq []uint64
		if err := gnpPairs(n, p, rng, func(v, w int) error {
			seq = append(seq, uint64(w)<<32|uint64(v))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		equalGNPRun(t, fmt.Sprintf("n=%d p=%v: gnpPairs", n, p), want, gnpRun{seq: seq, g: referenceBuild(n, seq), next: rng.Uint64()})
	})
}

// FuzzShardStream pins streaming ≡ materialized shard construction on
// arbitrary small edge lists: bytes decode as (n, k, edge pairs), the valid
// edges build a materialized graph partitioned the usual way, and streaming
// the same (duplicated, unordered) edge sequence through the sharded builder
// must reproduce every slice byte for byte.
func FuzzShardStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 2, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{6, 3, 0, 5, 5, 0, 1, 4}) // cross-shard + reversed duplicate
	f.Add([]byte{3, 7, 0, 1})             // k > n: empty shards
	f.Add([]byte{5, 1, 0, 0, 9, 1})       // invalid edges among valid ones
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]%48) + 1
		k := int(data[1]%8) + 1
		var edges [][2]int
		for i := 2; i+1 < len(data) && i < 200; i += 2 {
			u, v := int(data[i]), int(data[i+1])
			if u == v || u >= n || v >= n {
				continue
			}
			edges = append(edges, [2]int{u, v})
		}
		b := NewBuilder(n)
		for _, e := range edges {
			if err := b.AddEdge(e[0], e[1]); err != nil {
				t.Fatalf("AddEdge(%d,%d): %v", e[0], e[1], err)
			}
		}
		g := b.Build()
		want, err := NewShardedGraph(g, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewShardedGraphFromEdges(n, k, func(emit func(u, v int) error) error {
			for _, e := range edges {
				if err := emit(e[0], e[1]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		equalShardedStructures(t, "fuzz", want, got)
	})
}
