package graph

import (
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
		rb := NewBuilder(n)
		for i := len(pairs) - 1; i >= 0; i-- {
			if err := rb.AddEdge(int(pairs[i]>>32), int(uint32(pairs[i]))); err != nil {
				t.Fatal(err)
			}
		}
		equalCSR(t, "reversed", want, rb.Build())
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
