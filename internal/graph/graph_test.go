package graph

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

// wide returns 1<<shift, or math.MaxInt where an int has 32 bits and the
// shift is past them: test sizes that stand for "absurdly large" compile
// and stay absurd on every target.
func wide(shift uint) int {
	if strconv.IntSize == 32 && shift >= 31 {
		return math.MaxInt
	}
	return 1 << shift
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	type badEdge struct {
		name    string
		n, u, v int
	}
	tests := []badEdge{
		{name: "self loop", n: 5, u: 1, v: 1},
		{name: "negative", n: 5, u: -1, v: 2},
		{name: "out of range", n: 5, u: 0, v: 5},
	}
	if strconv.IntSize == 64 {
		// Below n but past the int32 CSR's ids. The builder allocates
		// nothing before Build, so the huge n costs no memory. A 32-bit
		// int cannot name such an id.
		tests = append(tests, badEdge{name: "beyond int32", n: wide(31) + 1, u: wide(31), v: 0})
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder(tt.n)
			if err := b.AddEdge(tt.u, tt.v); err == nil {
				t.Fatalf("AddEdge(%d,%d) = nil error, want error", tt.u, tt.v)
			}
		})
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	// The same edge in both orientations, repeatedly: Build must merge.
	if err := b.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (duplicates merged)", g.M())
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatalf("degrees = %d,%d; want 1,2", g.Degree(0), g.Degree(1))
	}
}

// TestBuilderUseAfterBuild pins the finalized-builder contract: AddEdge
// returns an error instead of silently dropping the edge, ShardedBuilder's
// AddEdge and Build do the same, and Builder.Build — which has no error
// result — panics on a second call.
func TestBuilderUseAfterBuild(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	b.Build()
	if err := b.AddEdge(1, 2); err == nil {
		t.Fatal("AddEdge on a finalized Builder returned nil")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Build on a Builder did not panic")
			}
		}()
		b.Build()
	}()
	sb, err := NewShardedBuilder(3, []int32{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Build(); err != nil {
		t.Fatal(err)
	}
	if err := sb.AddEdge(1, 2); err == nil {
		t.Fatal("AddEdge on a finalized ShardedBuilder returned nil")
	}
	if sg, err := sb.Build(); err == nil || sg != nil {
		t.Fatalf("second ShardedBuilder.Build = %v, %v; want nil, error", sg, err)
	}
}

func TestGraphBasics(t *testing.T) {
	b := NewBuilder(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N,M = %d,%d; want 4,4", g.N(), g.M())
	}
	if g.Degree(2) != 3 {
		t.Fatalf("Degree(2) = %d, want 3", g.Degree(2))
	}
	if !g.HasEdge(0, 2) || g.HasEdge(0, 3) || g.HasEdge(1, 1) {
		t.Fatal("HasEdge wrong")
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	if got := g.CommonNeighbors(0, 3); got != 1 { // both adjacent to 2
		t.Fatalf("CommonNeighbors(0,3) = %d, want 1", got)
	}
}

// TestCommonNeighborsMatchesBruteForce checks the sorted-list merge behind
// acd's exact buddy predicate against a set intersection on every pair.
func TestCommonNeighborsMatchesBruteForce(t *testing.T) {
	rng := NewRand(7)
	g := MustGNP(40, 0.2, rng)
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			set := map[int32]bool{}
			for _, w := range g.Neighbors(u) {
				set[w] = true
			}
			want := 0
			for _, w := range g.Neighbors(v) {
				if set[w] {
					want++
				}
			}
			if got := g.CommonNeighbors(u, v); got != want {
				t.Fatalf("common neighbors (%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{name: "empty", g: NewBuilder(5).Build(), want: 5},
		{name: "path", g: Path(6), want: 1},
		{name: "clique", g: Clique(4), want: 1},
		{name: "two cliques", g: twoCliques(t), want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			labels, count := tt.g.ConnectedComponents()
			if count != tt.want {
				t.Fatalf("count = %d, want %d", count, tt.want)
			}
			// Labels of adjacent vertices must agree.
			for v := 0; v < tt.g.N(); v++ {
				for _, w := range tt.g.Neighbors(v) {
					if labels[v] != labels[w] {
						t.Fatalf("adjacent %d,%d in different components", v, w)
					}
				}
			}
		})
	}
}

func twoCliques(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(8)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if err := b.AddEdge(u+4, v+4); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

func TestBFSDepths(t *testing.T) {
	g := Path(5)
	depth, parent := g.BFSDepths(0, nil)
	for v := 0; v < 5; v++ {
		if depth[v] != v {
			t.Fatalf("depth[%d] = %d, want %d", v, depth[v], v)
		}
	}
	if parent[0] != -1 || parent[3] != 2 {
		t.Fatalf("parents = %v", parent)
	}
	// Restricted BFS cannot cross disallowed vertices.
	depth, _ = g.BFSDepths(0, func(v int) bool { return v != 2 })
	if depth[3] != -1 || depth[4] != -1 {
		t.Fatalf("restricted BFS leaked past blocked vertex: %v", depth)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Clique(5)
	sub, orig := g.InducedSubgraph([]int{0, 2, 4})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced N,M = %d,%d; want 3,3", sub.N(), sub.M())
	}
	if orig[1] != 2 {
		t.Fatalf("orig = %v", orig)
	}
}

func mustPower(t *testing.T, g *Graph, k int) *Graph {
	t.Helper()
	p, err := g.Power(k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPowerGraph(t *testing.T) {
	// Path 0-1-2-3: square adds {0,2},{1,3}.
	p := mustPower(t, Path(4), 2)
	wantEdges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {1, 3}}
	if p.M() != len(wantEdges) {
		t.Fatalf("M = %d, want %d", p.M(), len(wantEdges))
	}
	for _, e := range wantEdges {
		if !p.HasEdge(e[0], e[1]) {
			t.Fatalf("missing power edge %v", e)
		}
	}
	if p.HasEdge(0, 3) {
		t.Fatal("distance-3 pair adjacent in square")
	}
}

func TestPowerGraphMatchesBFS(t *testing.T) {
	rng := NewRand(11)
	g := MustGNP(30, 0.1, rng)
	p := mustPower(t, g, 2)
	for u := 0; u < g.N(); u++ {
		depth, _ := g.BFSDepths(u, nil)
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			want := depth[v] >= 1 && depth[v] <= 2
			if got := p.HasEdge(u, v); got != want {
				t.Fatalf("power edge (%d,%d) = %v, want %v (dist %d)", u, v, got, want, depth[v])
			}
		}
	}
}

func TestGNPDegreeConcentration(t *testing.T) {
	rng := NewRand(3)
	n, p := 400, 0.1
	g := MustGNP(n, p, rng)
	mean := 0.0
	for v := 0; v < n; v++ {
		mean += float64(g.Degree(v))
	}
	mean /= float64(n)
	want := p * float64(n-1)
	if mean < want*0.8 || mean > want*1.2 {
		t.Fatalf("mean degree %.1f far from np = %.1f", mean, want)
	}
}

func TestGenerators(t *testing.T) {
	rng := NewRand(5)
	tests := []struct {
		name       string
		g          *Graph
		wantN      int
		wantM      int
		wantMaxDeg int
	}{
		{name: "clique", g: Clique(6), wantN: 6, wantM: 15, wantMaxDeg: 5},
		{name: "path", g: Path(6), wantN: 6, wantM: 5, wantMaxDeg: 2},
		{name: "cycle", g: Cycle(6), wantN: 6, wantM: 6, wantMaxDeg: 2},
		{name: "star", g: Star(6), wantN: 6, wantM: 5, wantMaxDeg: 5},
		{name: "tree", g: RandomTree(20, rng), wantN: 20, wantM: 19, wantMaxDeg: -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.wantN || tt.g.M() != tt.wantM {
				t.Fatalf("N,M = %d,%d; want %d,%d", tt.g.N(), tt.g.M(), tt.wantN, tt.wantM)
			}
			if tt.wantMaxDeg >= 0 && tt.g.MaxDegree() != tt.wantMaxDeg {
				t.Fatalf("MaxDegree = %d, want %d", tt.g.MaxDegree(), tt.wantMaxDeg)
			}
		})
	}
}

func TestRandomTreeConnected(t *testing.T) {
	rng := NewRand(13)
	g := RandomTree(50, rng)
	if _, count := g.ConnectedComponents(); count != 1 {
		t.Fatalf("tree has %d components", count)
	}
}

func TestPlantedACD(t *testing.T) {
	rng := NewRand(9)
	spec := PlantedACDSpec{
		NumCliques:     3,
		CliqueSize:     30,
		DropFraction:   0.05,
		ExternalDegree: 2,
		SparseN:        40,
		SparseP:        0.05,
	}
	g, blocks, err := PlantedACD(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3*30+40 {
		t.Fatalf("N = %d", g.N())
	}
	// Dense vertices must be mostly adjacent within their block.
	for v := 0; v < 90; v++ {
		if blocks[v] < 0 {
			t.Fatalf("dense vertex %d has no block", v)
		}
		inBlock := 0
		for _, w := range g.Neighbors(v) {
			if blocks[w] == blocks[v] {
				inBlock++
			}
		}
		if inBlock < 20 {
			t.Fatalf("vertex %d has only %d in-block neighbors", v, inBlock)
		}
	}
	for v := 90; v < g.N(); v++ {
		if blocks[v] != -1 {
			t.Fatalf("sparse vertex %d has block %d", v, blocks[v])
		}
	}
}

func TestPlantedACDRejectsBadSpec(t *testing.T) {
	rng := NewRand(1)
	if _, _, err := PlantedACD(PlantedACDSpec{NumCliques: -1}, rng); err == nil {
		t.Fatal("negative spec accepted")
	}
	if _, _, err := PlantedACD(PlantedACDSpec{DropFraction: 1.5}, rng); err == nil {
		t.Fatal("bad drop fraction accepted")
	}
}

// Property: HasEdge is symmetric and consistent with Neighbors.
func TestHasEdgeSymmetryProperty(t *testing.T) {
	rng := NewRand(21)
	g := MustGNP(60, 0.15, rng)
	f := func(a, b uint8) bool {
		u := int(a) % g.N()
		v := int(b) % g.N()
		if g.HasEdge(u, v) != g.HasEdge(v, u) {
			return false
		}
		inList := false
		for _, w := range g.Neighbors(u) {
			if int(w) == v {
				inList = true
			}
		}
		return g.HasEdge(u, v) == inList
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: degree sums equal 2M on random graphs.
func TestDegreeSumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRand(seed)
		g := MustGNP(30+int(seed%20), 0.2, rng)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGeometric(t *testing.T) {
	rng := NewRand(41)
	g, pts, err := RandomGeometric(200, 0.12, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 || len(pts) != 200 {
		t.Fatalf("N = %d, pts = %d", g.N(), len(pts))
	}
	// Every edge respects the radius; every in-radius pair is an edge.
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			dx := pts[u][0] - pts[v][0]
			dy := pts[u][1] - pts[v][1]
			within := dx*dx+dy*dy <= 0.12*0.12
			if g.HasEdge(u, v) != within {
				t.Fatalf("edge (%d,%d) = %v but within = %v", u, v, g.HasEdge(u, v), within)
			}
		}
	}
	// Expected degree ≈ n·π·r² ≈ 9; demand a sane band.
	mean := 0.0
	for v := 0; v < g.N(); v++ {
		mean += float64(g.Degree(v))
	}
	mean /= float64(g.N())
	if mean < 3 || mean > 20 {
		t.Fatalf("mean degree %.1f outside sane band", mean)
	}
}
