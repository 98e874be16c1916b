package cluster

import (
	"slices"
	"testing"

	"clustercolor/internal/graph"
	"clustercolor/internal/network"
)

func mustCG(t *testing.T, h *graph.Graph, spec graph.ExpandSpec, seed uint64) *CG {
	t.Helper()
	rng := graph.NewRand(seed)
	exp, err := graph.Expand(h, spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := network.NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := New(h, exp, cost)
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

func TestNewComputesSupportTrees(t *testing.T) {
	tests := []struct {
		name         string
		spec         graph.ExpandSpec
		wantDilation int
	}{
		{name: "singleton", spec: graph.ExpandSpec{Topology: graph.TopologySingleton}, wantDilation: 0},
		{name: "star5", spec: graph.ExpandSpec{Topology: graph.TopologyStar, MachinesPerCluster: 5}, wantDilation: 1},
		{name: "path4", spec: graph.ExpandSpec{Topology: graph.TopologyPath, MachinesPerCluster: 4}, wantDilation: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cg := mustCG(t, graph.Cycle(5), tt.spec, 3)
			if cg.Dilation != tt.wantDilation {
				t.Fatalf("Dilation = %d, want %d", cg.Dilation, tt.wantDilation)
			}
			// Tree structure: every non-leader machine has a parent in the
			// same cluster at depth-1.
			for m := 0; m < cg.G.N(); m++ {
				v := cg.ClusterOf[m]
				if int32(m) == cg.Leader[v] {
					if cg.TreeParent[m] != -1 || cg.TreeDepth[m] != 0 {
						t.Fatalf("leader %d has parent %d depth %d", m, cg.TreeParent[m], cg.TreeDepth[m])
					}
					continue
				}
				p := cg.TreeParent[m]
				if p < 0 || cg.ClusterOf[p] != v {
					t.Fatalf("machine %d parent %d outside cluster", m, p)
				}
				if cg.TreeDepth[m] != cg.TreeDepth[p]+1 {
					t.Fatalf("machine %d depth %d, parent depth %d", m, cg.TreeDepth[m], cg.TreeDepth[p])
				}
				if !cg.G.HasEdge(m, int(p)) {
					t.Fatalf("tree edge {%d,%d} not a G-link", m, p)
				}
			}
		})
	}
}

// mixedLinks are the G-links of newMixedCG: v1 wired 1-2-3, v3 wired
// 5-6, and inter-cluster links 0-3, 2-4, 4-6. Each one-machine cluster's
// machine links into a multi-machine cluster, so a tree walk that crossed
// cluster boundaries would show in the trees.
var mixedLinks = [][2]int{{1, 2}, {2, 3}, {5, 6}, {0, 3}, {2, 4}, {4, 6}}

// newMixedCG hand-builds an expansion of Path(4) whose clusters mix
// one-machine and multi-machine sizes, v0 = {0}, v1 = {1, 2, 3}, v2 = {4},
// v3 = {5, 6}, over the given G-links, and runs New on it.
func newMixedCG(t *testing.T, links [][2]int) (*CG, error) {
	t.Helper()
	b := graph.NewBuilder(7)
	for _, e := range links {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	exp := graph.NewExpansion(b.Build(), []int32{0, 1, 1, 1, 2, 3, 3}, 4)
	cost, err := network.NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	return New(graph.Path(4), exp, cost)
}

func TestNewMixedClusterSizes(t *testing.T) {
	cg, err := newMixedCG(t, mixedLinks)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 1, 4, 5}; !slices.Equal(cg.Leader, want) {
		t.Fatalf("Leader = %v, want %v", cg.Leader, want)
	}
	if want := []int32{-1, -1, 1, 2, -1, -1, 5}; !slices.Equal(cg.TreeParent, want) {
		t.Fatalf("TreeParent = %v, want %v", cg.TreeParent, want)
	}
	if want := []int32{0, 0, 1, 2, 0, 0, 1}; !slices.Equal(cg.TreeDepth, want) {
		t.Fatalf("TreeDepth = %v, want %v", cg.TreeDepth, want)
	}
	if cg.Dilation != 2 {
		t.Fatalf("Dilation = %d, want 2", cg.Dilation)
	}
}

func TestNewRejectsDisconnectedCluster(t *testing.T) {
	// Without v1's 2-3 link machine 3 is cut off from its leader; the
	// one-machine clusters beside it must not skip the check.
	links := slices.DeleteFunc(slices.Clone(mixedLinks), func(e [2]int) bool { return e == [2]int{2, 3} })
	if _, err := newMixedCG(t, links); err == nil {
		t.Fatal("disconnected cluster accepted")
	}
}

func TestNewRejectsNilCost(t *testing.T) {
	rng := graph.NewRand(1)
	h := graph.Path(3)
	exp, err := graph.Expand(h, graph.ExpandSpec{Topology: graph.TopologySingleton}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(h, exp, nil); err == nil {
		t.Fatal("nil cost model accepted")
	}
}

func TestHopsPerRoundAndCharge(t *testing.T) {
	cg := mustCG(t, graph.Path(3), graph.ExpandSpec{Topology: graph.TopologyPath, MachinesPerCluster: 4}, 7)
	if got, want := cg.HopsPerRound(), 2*3+1; got != want {
		t.Fatalf("HopsPerRound = %d, want %d", got, want)
	}
	rounds := cg.ChargeHRounds("x", 2, 10)
	if rounds != 2*cg.HopsPerRound() {
		t.Fatalf("ChargeHRounds = %d, want %d", rounds, 2*cg.HopsPerRound())
	}
}

func TestBFSForestMatchesSequentialBFS(t *testing.T) {
	rng := graph.NewRand(23)
	h := graph.MustGNP(40, 0.15, rng)
	cg := mustCG(t, h, graph.ExpandSpec{Topology: graph.TopologySingleton}, 5)
	// Two disjoint subgraphs: even vertices and odd vertices.
	var even, odd []int
	for v := 0; v < h.N(); v++ {
		if v%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	trees, err := cg.BFSForest("bfs", [][]int{even, odd}, []int{0, 1}, h.N())
	if err != nil {
		t.Fatal(err)
	}
	for i, allow := range []func(int) bool{func(v int) bool { return v%2 == 0 }, func(v int) bool { return v%2 == 1 }} {
		depth, _ := h.BFSDepths(trees[i].Root, allow)
		for v := 0; v < h.N(); v++ {
			if trees[i].Depth(v) != depth[v] {
				t.Fatalf("tree %d depth[%d] = %d, want %d", i, v, trees[i].Depth(v), depth[v])
			}
			if trees[i].Contains(v) != (depth[v] >= 0) {
				t.Fatalf("tree %d Contains(%d) = %v, depth %d", i, v, trees[i].Contains(v), depth[v])
			}
		}
		// Parent edges are H-edges and decrease depth by one.
		for v := 0; v < h.N(); v++ {
			p := trees[i].Parent(v)
			if p < 0 {
				continue
			}
			if !h.HasEdge(v, p) || trees[i].Depth(v) != trees[i].Depth(p)+1 {
				t.Fatalf("tree %d bad parent edge %d->%d", i, v, p)
			}
		}
		if trees[i].Len() != len(trees[i].Vertices) {
			t.Fatalf("tree %d Len %d != %d members", i, trees[i].Len(), len(trees[i].Vertices))
		}
	}
}

func TestBFSForestRejectsOverlap(t *testing.T) {
	cg := mustCG(t, graph.Clique(4), graph.ExpandSpec{Topology: graph.TopologySingleton}, 5)
	_, err := cg.BFSForest("bfs", [][]int{{0, 1}, {1, 2}}, []int{0, 1}, 3)
	if err == nil {
		t.Fatal("overlapping subgraphs accepted")
	}
	if _, err := cg.BFSForest("bfs", [][]int{{0, 1}}, []int{2}, 3); err == nil {
		t.Fatal("source outside subgraph accepted")
	}
	if _, err := cg.BFSForest("bfs", [][]int{{0}}, []int{0, 1}, 3); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestBFSForestRespectsDepthBudget(t *testing.T) {
	cg := mustCG(t, graph.Path(6), graph.ExpandSpec{Topology: graph.TopologySingleton}, 5)
	all := []int{0, 1, 2, 3, 4, 5}
	trees, err := cg.BFSForest("bfs", [][]int{all}, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if trees[0].Depth(2) != 2 || trees[0].Depth(3) != -1 {
		t.Fatalf("depth budget ignored: depth(2)=%d depth(3)=%d", trees[0].Depth(2), trees[0].Depth(3))
	}
}

func TestPrefixSumsMatchSequential(t *testing.T) {
	cg := mustCG(t, graph.Path(7), graph.ExpandSpec{Topology: graph.TopologySingleton}, 5)
	all := []int{0, 1, 2, 3, 4, 5, 6}
	trees, err := cg.BFSForest("bfs", [][]int{all}, []int{0}, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := map[int]int64{1: 10, 3: 20, 5: 30, 6: 40}
	sums, err := cg.PrefixSums("ps", trees, []map[int]int64{x})
	if err != nil {
		t.Fatal(err)
	}
	// Path rooted at 0: preorder is 0,1,...,6; members in order 1,3,5,6.
	want := map[int]int64{1: 0, 3: 10, 5: 30, 6: 60}
	for v, w := range want {
		if sums[0][v] != w {
			t.Fatalf("prefix[%d] = %d, want %d", v, sums[0][v], w)
		}
	}
	if _, ok := sums[0][2]; ok {
		t.Fatal("non-member got a prefix sum")
	}
}

func TestPrefixSumsLengthMismatch(t *testing.T) {
	cg := mustCG(t, graph.Path(3), graph.ExpandSpec{Topology: graph.TopologySingleton}, 5)
	trees, err := cg.BFSForest("bfs", [][]int{{0, 1, 2}}, []int{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cg.PrefixSums("ps", trees, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestEnumerateAssignsDenseRanks(t *testing.T) {
	cg := mustCG(t, graph.Clique(6), graph.ExpandSpec{Topology: graph.TopologySingleton}, 5)
	all := []int{0, 1, 2, 3, 4, 5}
	trees, err := cg.BFSForest("bfs", [][]int{all}, []int{0}, 6)
	if err != nil {
		t.Fatal(err)
	}
	pred := func(v int) bool { return v%2 == 1 } // members 1,3,5
	rank, counts, err := cg.Enumerate("enum", trees, pred)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 3 {
		t.Fatalf("count = %d, want 3", counts[0])
	}
	seen := map[int]bool{}
	for v := 0; v < 6; v++ {
		if pred(v) {
			if rank[v] < 1 || rank[v] > 3 || seen[rank[v]] {
				t.Fatalf("bad rank %d for %d", rank[v], v)
			}
			seen[rank[v]] = true
		} else if rank[v] != 0 {
			t.Fatalf("non-member %d has rank %d", v, rank[v])
		}
	}
}

func TestBroadcastAndAggregateMachineLevel(t *testing.T) {
	cg := mustCG(t, graph.Cycle(4), graph.ExpandSpec{Topology: graph.TopologyTree, MachinesPerCluster: 6}, 11)
	vals, err := cg.BroadcastFromLeader("b", 16, func(v int) uint64 { return uint64(100 + v) })
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < cg.G.N(); m++ {
		if vals[m] != uint64(100+cg.ClusterOf[m]) {
			t.Fatalf("machine %d got %d, want %d", m, vals[m], 100+cg.ClusterOf[m])
		}
	}
	// Aggregate: sum machine indices per cluster.
	sums, err := cg.AggregateToLeader("a", 16, func(m int) uint64 { return uint64(m) },
		func(a, b uint64) uint64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, cg.H.N())
	for m := 0; m < cg.G.N(); m++ {
		want[cg.ClusterOf[m]] += uint64(m)
	}
	for v := 0; v < cg.H.N(); v++ {
		if sums[v] != want[v] {
			t.Fatalf("cluster %d sum = %d, want %d", v, sums[v], want[v])
		}
	}
}

func TestLeaderRoundComputesNeighborMax(t *testing.T) {
	cg := mustCG(t, graph.Cycle(5), graph.ExpandSpec{Topology: graph.TopologyStar, MachinesPerCluster: 4, RedundantLinks: 3}, 13)
	max := func(a, b uint64) uint64 {
		if a > b {
			return a
		}
		return b
	}
	got, err := cg.LeaderRound("round", 16, func(v int) uint64 { return uint64(v * 7) }, 0, max)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		var want uint64
		for _, u := range cg.H.Neighbors(v) {
			want = max(want, uint64(u*7))
		}
		if got[v] != want {
			t.Fatalf("LeaderRound[%d] = %d, want %d (redundant links must not corrupt idempotent aggregation)", v, got[v], want)
		}
	}
}

func TestIDBits(t *testing.T) {
	cg := mustCG(t, graph.Path(3), graph.ExpandSpec{Topology: graph.TopologySingleton}, 5)
	if cg.IDBits() < 2 {
		t.Fatalf("IDBits = %d", cg.IDBits())
	}
}

func TestWithCostIsolatesCharges(t *testing.T) {
	cg := mustCG(t, graph.Path(3), graph.ExpandSpec{Topology: graph.TopologySingleton}, 3)
	scratch, err := network.NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	sub := cg.WithCost(scratch)
	sub.ChargeHRounds("sub", 2, 8)
	if cg.Cost().Rounds() != 0 {
		t.Fatalf("main model charged %d rounds via WithCost copy", cg.Cost().Rounds())
	}
	if scratch.Rounds() == 0 {
		t.Fatal("scratch model not charged")
	}
	// Structure is shared.
	if sub.H != cg.H || sub.Dilation != cg.Dilation {
		t.Fatal("WithCost copy lost structure")
	}
}

func TestNewAbstract(t *testing.T) {
	h := graph.Cycle(5)
	g := graph.Path(8)
	cost, err := network.NewCostModel(32)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := NewAbstract(h, g, 2, cost)
	if err != nil {
		t.Fatal(err)
	}
	if cg.HopsPerRound() != 5 {
		t.Fatalf("HopsPerRound = %d, want 5", cg.HopsPerRound())
	}
	// Vertex-level charging works without machine structure.
	if got := cg.ChargeHRounds("x", 1, 8); got != 5 || cost.Rounds() != 5 {
		t.Fatalf("ChargeHRounds = %d (model %d rounds), want 5", got, cost.Rounds())
	}
	if _, err := NewAbstract(h, g, -1, cost); err == nil {
		t.Fatal("negative dilation accepted")
	}
	if _, err := NewAbstract(h, g, 1, nil); err == nil {
		t.Fatal("nil cost accepted")
	}
}
