package clustercolor

import (
	"math"
	"strings"
	"testing"
)

// figure1Instance reproduces Figure 1's communication graph: machines
// partitioned into 4 clusters; H is the induced cluster graph.
func figure1Instance() (*Graph, []int) {
	// 10 machines: cluster 0 = {0,1,2}, 1 = {3,4}, 2 = {5,6,7}, 3 = {8,9}.
	b := NewGraphBuilder(10)
	edges := [][2]int{
		{0, 1}, {1, 2}, // cluster 0 internal (path)
		{3, 4},                 // cluster 1 internal
		{5, 6}, {6, 7}, {5, 7}, // cluster 2 internal (triangle)
		{8, 9}, // cluster 3 internal
		// Inter-cluster links (including a redundant pair 0↔2).
		{2, 3}, {4, 5}, {7, 8}, {9, 0}, {1, 5},
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	g := b.Build()
	clusterOf := []int{0, 0, 0, 1, 1, 2, 2, 2, 3, 3}
	return g, clusterOf
}

func TestColorClusteredFigure1(t *testing.T) {
	g, clusterOf := figure1Instance()
	h, err := ContractedGraph(g, clusterOf)
	if err != nil {
		t.Fatal(err)
	}
	// H is the 4-cycle plus the chord 0-2: edges {0,1},{1,2},{2,3},{3,0},{0,2}.
	wantEdges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}}
	if h.M() != len(wantEdges) {
		t.Fatalf("H has %d edges, want %d", h.M(), len(wantEdges))
	}
	for _, e := range wantEdges {
		if !h.HasEdge(e[0], e[1]) {
			t.Fatalf("H missing edge %v", e)
		}
	}
	res, err := ColorClustered(g, clusterOf, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h, res.Colors()); err != nil {
		t.Fatal(err)
	}
}

func TestColorClusteredValidation(t *testing.T) {
	g, clusterOf := figure1Instance()
	if _, err := ColorClustered(g, clusterOf[:5], Options{}); err == nil {
		t.Fatal("short assignment accepted")
	}
	bad := append([]int(nil), clusterOf...)
	bad[0] = -1
	if _, err := ColorClustered(g, bad, Options{}); err == nil {
		t.Fatal("negative cluster accepted")
	}
	sparseIDs := append([]int(nil), clusterOf...)
	sparseIDs[0] = 9 // cluster ids 0..9 but most empty
	if _, err := ColorClustered(g, sparseIDs, Options{}); err == nil {
		t.Fatal("non-dense cluster ids accepted")
	}
	// Ids past the machine count fail before they size the cluster table:
	// c+1 overflows at math.MaxInt, and 1<<20 would allocate 2²⁰+1 entries.
	b := NewGraphBuilder(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g3 := b.Build()
	for _, huge := range []int{math.MaxInt, 1 << 20} {
		ids := []int{0, huge, 0}
		if _, err := ContractedGraph(g3, ids); err == nil || !strings.Contains(err.Error(), "dense") {
			t.Fatalf("ContractedGraph with cluster %d: error %v, want a density error", huge, err)
		}
		if _, err := ColorClustered(g3, ids, Options{}); err == nil || !strings.Contains(err.Error(), "dense") {
			t.Fatalf("ColorClustered with cluster %d: error %v, want a density error", huge, err)
		}
	}
	// Disconnected cluster: machines 0 and 7 as one cluster.
	disc := append([]int(nil), clusterOf...)
	disc[0] = 2
	if _, err := ColorClustered(g, disc, Options{}); err == nil {
		t.Fatal("disconnected cluster accepted")
	}
}

func TestColorClusteredBFSBallDecomposition(t *testing.T) {
	// The network-decomposition scenario: grow BFS balls over a random
	// network, contract them, and color the contracted graph.
	g := mustGNP(t, 400, 0.015, 17)
	clusterOf := bfsBalls(g, 2)
	res, err := ColorClustered(g, clusterOf, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ContractedGraph(g, clusterOf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h, res.Colors()); err != nil {
		t.Fatal(err)
	}
	// The cluster coloring induces a valid "cluster-distinct" labelling of
	// machines: adjacent machines of different clusters differ.
	for m := 0; m < g.N(); m++ {
		for _, m2 := range g.Neighbors(m) {
			cu, cv := clusterOf[m], clusterOf[int(m2)]
			if cu != cv && res.ColorOf(cu) == res.ColorOf(cv) {
				t.Fatalf("adjacent clusters %d,%d share color", cu, cv)
			}
		}
	}
}

// bfsBalls greedily partitions g into BFS balls of the given radius.
func bfsBalls(g *Graph, radius int) []int {
	clusterOf := make([]int, g.N())
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	next := 0
	for s := 0; s < g.N(); s++ {
		if clusterOf[s] >= 0 {
			continue
		}
		id := next
		next++
		clusterOf[s] = id
		frontier := []int{s}
		for r := 0; r < radius; r++ {
			var nf []int
			for _, v := range frontier {
				for _, u := range g.Neighbors(v) {
					if clusterOf[u] < 0 {
						clusterOf[u] = id
						nf = append(nf, int(u))
					}
				}
			}
			frontier = nf
		}
	}
	return clusterOf
}

func TestColorBaselines(t *testing.T) {
	h := mustGNP(t, 200, 0.08, 19)
	for _, kind := range []BaselineKind{LubyBaseline, PaletteSparsificationBaseline} {
		res, err := ColorBaseline(h, kind, Options{Seed: 7})
		if err != nil {
			t.Fatalf("baseline %d: %v", kind, err)
		}
		if err := Verify(h, res.Colors()); err != nil {
			t.Fatalf("baseline %d: %v", kind, err)
		}
		if res.Rounds() <= 0 {
			t.Fatalf("baseline %d recorded no rounds", kind)
		}
	}
	if _, err := ColorBaseline(h, BaselineKind(99), Options{}); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestColorDistance2Facade(t *testing.T) {
	g := mustGNP(t, 150, 0.025, 23)
	res, err := ColorDistance2(g, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Power(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h2, res.Colors()); err != nil {
		t.Fatal(err)
	}
	colors := res.Colors()
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if colors[v] == colors[int(u)] {
				t.Fatalf("distance-1 conflict %d,%d", v, u)
			}
		}
	}
	if res.NumColors() > h2.MaxDegree()+1 {
		t.Fatalf("used %d colors, budget %d", res.NumColors(), h2.MaxDegree()+1)
	}
}
