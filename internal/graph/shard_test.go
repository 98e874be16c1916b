package graph

import (
	"slices"
	"testing"
)

// checkSharded verifies every structural invariant of a sharded view
// against its global graph: partition coverage, local CSR content, id
// round-trips, and the boundary tables.
func checkSharded(t *testing.T, g *Graph, sg *ShardedGraph) {
	t.Helper()
	k := sg.NumShards()
	if int(sg.Starts[0]) != 0 || int(sg.Starts[k]) != g.N() {
		t.Fatalf("partition [%d, %d) does not cover [0, %d)", sg.Starts[0], sg.Starts[k], g.N())
	}
	ownedSlots := 0
	for s, sl := range sg.Slices {
		if sl.Shard != s || sl.Lo != int(sg.Starts[s]) || sl.Hi != int(sg.Starts[s+1]) {
			t.Fatalf("slice %d bounds [%d,%d) disagree with Starts", s, sl.Lo, sl.Hi)
		}
		own := sl.Own()
		if sl.CSR.N() != own+len(sl.Halo) {
			t.Fatalf("slice %d CSR has %d vertices, want %d own + %d halo", s, sl.CSR.N(), own, len(sl.Halo))
		}
		// Id round-trips.
		for l := 0; l < sl.CSR.N(); l++ {
			gv := sl.ToGlobal(l)
			back, ok := sl.LocalOf(gv)
			if !ok || back != l {
				t.Fatalf("slice %d local %d -> global %d -> local %d (ok=%v)", s, l, gv, back, ok)
			}
		}
		for i, u := range sl.Halo {
			if i > 0 && sl.Halo[i-1] >= u {
				t.Fatalf("slice %d halo not sorted/deduped at %d", s, i)
			}
			if o := sg.Owner(int(u)); int(sl.HaloOwner[i]) != o {
				t.Fatalf("slice %d halo %d owner %d, want %d", s, u, sl.HaloOwner[i], o)
			}
			if o := sg.Owner(int(u)); o == s {
				t.Fatalf("slice %d halo vertex %d is owned", s, u)
			}
		}
		// Owned rows: exactly the global row, partitioned into owned and
		// halo neighbors.
		boundaryEdges := 0
		boundarySet := make(map[int32]bool)
		for _, b := range sl.Boundary {
			boundarySet[b] = true
		}
		for v := sl.Lo; v < sl.Hi; v++ {
			lv := v - sl.Lo
			row := g.Neighbors(v)
			localRow := sl.CSR.Neighbors(lv)
			if len(localRow) != len(row) {
				t.Fatalf("slice %d vertex %d degree %d, want %d", s, v, len(localRow), len(row))
			}
			hasHalo := false
			seen := make(map[int]bool, len(row))
			for _, lu := range localRow {
				gu := sl.ToGlobal(int(lu))
				seen[gu] = true
				if gu < sl.Lo || gu >= sl.Hi {
					hasHalo = true
					boundaryEdges++
				}
			}
			for _, u := range row {
				if !seen[int(u)] {
					t.Fatalf("slice %d vertex %d missing neighbor %d", s, v, u)
				}
			}
			if hasHalo != boundarySet[int32(lv)] {
				t.Fatalf("slice %d vertex %d boundary flag %v, want %v", s, v, boundarySet[int32(lv)], hasHalo)
			}
		}
		ownedSlots += sl.CSR.AdjOffset(own)
		if boundaryEdges != sl.BoundaryEdges {
			t.Fatalf("slice %d BoundaryEdges %d, want %d", s, sl.BoundaryEdges, boundaryEdges)
		}
		// Halo rows never reach other halo vertices.
		for l := own; l < sl.CSR.N(); l++ {
			for _, lu := range sl.CSR.Neighbors(l) {
				if int(lu) >= own {
					t.Fatalf("slice %d has halo-halo edge %d-%d", s, l, lu)
				}
			}
		}
	}
	// Every directed edge is owned by exactly one shard.
	if ownedSlots != 2*g.M() {
		t.Fatalf("slices own %d directed edges, want %d", ownedSlots, 2*g.M())
	}
}

func TestShardedGraphInvariants(t *testing.T) {
	rng := NewRand(7)
	g := MustGNP(97, 0.12, rng)
	for _, k := range []int{1, 2, 3, 4, 7, 96, 97, 120} {
		sg, err := NewShardedGraph(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if sg.NumShards() != k {
			t.Fatalf("k=%d: got %d shards", k, sg.NumShards())
		}
		checkSharded(t, g, sg)
	}
}

// TestShardedGraphOneSliceAliases pins the unsharded decomposition's memory
// contract: the one-slice partition reuses the caller's CSR instead of
// copying it.
func TestShardedGraphOneSliceAliases(t *testing.T) {
	g := MustGNP(97, 0.12, NewRand(7))
	sg, err := NewShardedGraph(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sl := sg.Slices[0]; sl.CSR != g || len(sl.Halo) != 0 || len(sl.Boundary) != 0 {
		t.Fatalf("one-slice partition: CSR aliased %v, halo %d, boundary %d", sl.CSR == g, len(sl.Halo), len(sl.Boundary))
	}
}

// TestShardedGraphEmptyShards covers k > n: trailing shards own nothing and
// must come out structurally empty but well-formed.
func TestShardedGraphEmptyShards(t *testing.T) {
	g := Clique(3)
	sg, err := NewShardedGraph(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkSharded(t, g, sg)
	empty := 0
	for _, sl := range sg.Slices {
		if sl.Own() == 0 {
			empty++
			if len(sl.Halo) != 0 || sl.CSR.N() != 0 || sl.BoundaryEdges != 0 {
				t.Fatalf("empty shard %d has halo %d / csr %d / boundary %d", sl.Shard, len(sl.Halo), sl.CSR.N(), sl.BoundaryEdges)
			}
		}
	}
	if empty != 5 {
		t.Fatalf("want 5 empty shards, got %d", empty)
	}
}

// TestShardedGraphSingleVertexShards covers k == n: every shard owns one
// vertex and every edge is a boundary edge.
func TestShardedGraphSingleVertexShards(t *testing.T) {
	g := Clique(6)
	sg, err := NewShardedGraph(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkSharded(t, g, sg)
	for _, sl := range sg.Slices {
		if sl.Own() != 1 || sl.BoundaryEdges != 5 || len(sl.Halo) != 5 {
			t.Fatalf("shard %d: own %d, boundary %d, halo %d", sl.Shard, sl.Own(), sl.BoundaryEdges, len(sl.Halo))
		}
	}
}

// TestShardedGraphMidCliqueSplit pins the all-boundary case the issue calls
// out: a ring of cliques partitioned mid-clique, so shard borders cut
// through maximally dense subgraphs.
func TestShardedGraphMidCliqueSplit(t *testing.T) {
	g, err := RingOfCliques(6, 10) // n=60; k=8 puts borders inside cliques
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		sg, err := NewShardedGraph(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		checkSharded(t, g, sg)
	}
	// An explicit nasty partition: one clique split across three shards.
	sg, err := ShardedGraphFromStarts(g, []int32{0, 3, 7, 10, int32(g.N())})
	if err != nil {
		t.Fatal(err)
	}
	checkSharded(t, g, sg)
}

// TestShardedGraphUnevenShards covers shard counts that do not divide n.
func TestShardedGraphUnevenShards(t *testing.T) {
	rng := NewRand(11)
	g := MustGNP(101, 0.08, rng) // prime n
	for _, k := range []int{2, 3, 4, 5, 7} {
		sg, err := NewShardedGraph(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		total := 0
		for _, sl := range sg.Slices {
			total += sl.Own()
		}
		if total != g.N() {
			t.Fatalf("k=%d: shards own %d vertices, want %d", k, total, g.N())
		}
		checkSharded(t, g, sg)
	}
}

func TestShardedGraphRejectsBadPartitions(t *testing.T) {
	g := Path(5)
	if _, err := NewShardedGraph(g, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := ShardedGraphFromStarts(g, []int32{0, 3, 2, 5}); err == nil {
		t.Fatal("decreasing starts accepted")
	}
	if _, err := ShardedGraphFromStarts(g, []int32{0, 4}); err == nil {
		t.Fatal("short cover accepted")
	}
	if _, err := ShardedGraphFromStarts(g, []int32{1, 5}); err == nil {
		t.Fatal("offset cover accepted")
	}
}

// TestShardedIDMapsProperty drives Owner, LocalOf, and ToGlobal against
// brute-force scans over randomized partitions — including empty shards,
// k > n, and single-vertex slices — on both construction paths.
func TestShardedIDMapsProperty(t *testing.T) {
	rng := NewRand(42)
	for trial := 0; trial < 60; trial++ {
		n := rng.IntN(40)
		k := 1 + rng.IntN(n+5) // routinely exceeds n, forcing empty shards
		starts := make([]int32, k+1)
		for s := 1; s < k; s++ {
			starts[s] = int32(rng.IntN(n + 1))
		}
		starts[k] = int32(n)
		slices.Sort(starts)
		g, err := GNP(n, 0.2, rng)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := ShardedGraphFromStarts(g, starts)
		if err != nil {
			t.Fatal(err)
		}
		str, err := ShardedGraphFromEdgeStarts(n, starts, StreamOf(g))
		if err != nil {
			t.Fatal(err)
		}
		for name, sg := range map[string]*ShardedGraph{"materialized": mat, "streamed": str} {
			if sg.N() != n || sg.M() != g.M() || sg.MaxDegree() != g.MaxDegree() {
				t.Fatalf("trial %d %s: dims n=%d m=%d Δ=%d, want %d/%d/%d",
					trial, name, sg.N(), sg.M(), sg.MaxDegree(), n, g.M(), g.MaxDegree())
			}
			for v := 0; v < n; v++ {
				// Brute force: last shard whose range contains v.
				want := -1
				for s := 0; s < k; s++ {
					if v >= int(starts[s]) && v < int(starts[s+1]) {
						want = s
						break
					}
				}
				if got := sg.Owner(v); got != want {
					t.Fatalf("trial %d %s: Owner(%d) = %d, want %d (starts %v)", trial, name, v, got, want, starts)
				}
			}
			for s, sl := range sg.Slices {
				for v := 0; v < n; v++ {
					// Brute force: owned if in range, else linear halo scan.
					wantLocal, wantOK := -1, false
					if v >= sl.Lo && v < sl.Hi {
						wantLocal, wantOK = v-sl.Lo, true
					} else {
						for i, h := range sl.Halo {
							if int(h) == v {
								wantLocal, wantOK = sl.Own()+i, true
								break
							}
						}
					}
					got, ok := sl.LocalOf(v)
					if ok != wantOK || (ok && got != wantLocal) {
						t.Fatalf("trial %d %s: slice %d LocalOf(%d) = (%d,%v), want (%d,%v)",
							trial, name, s, v, got, ok, wantLocal, wantOK)
					}
					if wantOK && sl.ToGlobal(wantLocal) != v {
						t.Fatalf("trial %d %s: slice %d ToGlobal(%d) != %d", trial, name, s, wantLocal, v)
					}
				}
			}
		}
	}
}
