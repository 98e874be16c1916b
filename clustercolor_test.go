package clustercolor

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"clustercolor/internal/core"
)

func mustGNP(t *testing.T, n int, p float64, seed uint64) *Graph {
	t.Helper()
	h, err := GNP(n, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustClique(t *testing.T, n int) *Graph {
	t.Helper()
	h, err := Clique(n)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestColorQuickstart(t *testing.T) {
	h := mustGNP(t, 300, 0.05, 42)
	res, err := Color(h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h, res.Colors()); err != nil {
		t.Fatal(err)
	}
	if res.NumColors() > h.MaxDegree()+1 {
		t.Fatalf("used %d colors for Δ=%d", res.NumColors(), h.MaxDegree())
	}
	if res.Rounds() <= 0 {
		t.Fatal("no rounds recorded")
	}
	if !strings.Contains(res.CostSummary(), "rounds=") {
		t.Fatal("cost summary empty")
	}
	if res.ColorOf(0) < 1 {
		t.Fatal("ColorOf out of range")
	}
}

func TestColorAllTopologies(t *testing.T) {
	h := mustGNP(t, 120, 0.08, 7)
	tests := []struct {
		name string
		opts Options
	}{
		{name: "singleton", opts: Options{Topology: Singleton, Seed: 2}},
		{name: "star", opts: Options{Topology: StarCluster, MachinesPerCluster: 4, Seed: 2}},
		{name: "path", opts: Options{Topology: PathCluster, MachinesPerCluster: 3, Seed: 2}},
		{name: "tree", opts: Options{Topology: TreeCluster, MachinesPerCluster: 5, RedundantLinks: 2, Seed: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Color(h, tt.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(h, res.Colors()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVerifyRejectsBadColorings(t *testing.T) {
	h := mustClique(t, 4)
	res, err := Color(h, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	good := res.Colors()
	if err := Verify(h, good); err != nil {
		t.Fatal(err)
	}
	// Wrong length.
	if err := Verify(h, good[:2]); err == nil {
		t.Fatal("short assignment accepted")
	}
	// Monochromatic edge.
	bad := append([]int(nil), good...)
	bad[1] = bad[0]
	if err := Verify(h, bad); err == nil {
		t.Fatal("monochromatic edge accepted")
	}
	// Out-of-range color.
	bad2 := append([]int(nil), good...)
	bad2[0] = h.MaxDegree() + 2
	if err := Verify(h, bad2); err == nil {
		t.Fatal("out-of-range color accepted")
	}
	// Colors that narrow to a valid int32: good[0] ± 2³² wraps to good[0].
	for _, c := range []int{good[0] + 1<<32, good[0] - 1<<32} {
		bad3 := append([]int(nil), good...)
		bad3[0] = c
		if err := Verify(h, bad3); err == nil {
			t.Fatalf("color %d accepted (wraps to %d in int32)", c, int32(c))
		}
	}
}

func TestPowerGraphColoring(t *testing.T) {
	// Corollary 1.3's shape: distance-2 coloring via the square graph.
	g := mustGNP(t, 150, 0.03, 11)
	h2, err := Power(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Color(h2, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h2, res.Colors()); err != nil {
		t.Fatal(err)
	}
	// The coloring of the square is a distance-2 coloring of g.
	colors := res.Colors()
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if colors[v] == colors[int(u)] {
				t.Fatalf("distance-1 conflict %d,%d", v, u)
			}
			for _, w := range g.Neighbors(int(u)) {
				if int(w) != v && colors[v] == colors[int(w)] {
					t.Fatalf("distance-2 conflict %d,%d", v, w)
				}
			}
		}
	}
}

func TestDefaultBandwidthIsLogarithmic(t *testing.T) {
	if DefaultBandwidth(1024) >= DefaultBandwidth(1<<20) {
		t.Fatal("bandwidth not increasing")
	}
	if DefaultBandwidth(1<<20) > 100 {
		t.Fatalf("bandwidth %d too large for 2^20 machines", DefaultBandwidth(1<<20))
	}
}

func TestGraphBuilderFacade(t *testing.T) {
	b := NewGraphBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	h := b.Build()
	res, err := Color(h, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h, res.Colors()); err != nil {
		t.Fatal(err)
	}
}

// TestSeedZeroIsExplicit pins the Options.Seed contract: 0 is a usable
// explicit seed (it used to be conflated with "unset" and silently replaced
// by 1), runs are deterministic per seed, and different seeds actually steer
// the randomness.
func TestSeedZeroIsExplicit(t *testing.T) {
	h := mustGNP(t, 200, 0.1, 13)
	run := func(seed uint64) []int {
		t.Helper()
		res, err := Color(h, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(h, res.Colors()); err != nil {
			t.Fatal(err)
		}
		return res.Colors()
	}
	zeroA, zeroB := run(0), run(0)
	for i := range zeroA {
		if zeroA[i] != zeroB[i] {
			t.Fatal("Seed 0 runs not deterministic")
		}
	}
	one := run(1)
	same := true
	for i := range zeroA {
		if zeroA[i] != one[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Seed 0 produced the same coloring as Seed 1 — still being treated as unset")
	}
}

// TestExplicitParamsRespected pins the Params defaulting path: a non-zero
// Params must be used as given (with Options.Seed layered on top), not
// silently swapped for DefaultParams.
func TestExplicitParamsRespected(t *testing.T) {
	h := mustGNP(t, 150, 0.1, 21)
	p := core.DefaultParams(h.N())
	p.MaxFallbackRounds = 77 // a value DefaultParams never produces
	res, err := Color(h, Options{Seed: 4, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h, res.Colors()); err != nil {
		t.Fatal(err)
	}
	// An invalid explicit Params must surface as an error, not be replaced
	// by defaults.
	bad := core.DefaultParams(h.N())
	bad.Eps = 0.9
	if _, err := Color(h, Options{Seed: 4, Params: bad}); err == nil {
		t.Fatal("invalid explicit Params silently accepted")
	}
}

// TestColorHugeRedundantLinks pins the RedundantLinks cap at the library
// boundary: two 2-machine clusters have four machine pairs, so a request
// for 2⁵⁰ links per edge is served as four, not looped over or used to size
// a buffer.
func TestColorHugeRedundantLinks(t *testing.T) {
	h := mustClique(t, 7) // 21 edges
	res, err := Color(h, Options{Topology: StarCluster, MachinesPerCluster: 2, RedundantLinks: 1 << 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h, res.Colors()); err != nil {
		t.Fatal(err)
	}
}

// TestColorRejectsInvalidOptions pins that Color refuses options it would
// otherwise quietly replace (an unknown Topology would run a singleton
// network, RedundantLinks -2 one link per edge, and Shards -1 one slice),
// and returns an error for a cluster size whose machine count overflows the
// int32 network ids instead of panicking in makeslice.
func TestColorRejectsInvalidOptions(t *testing.T) {
	h := mustGNP(t, 200, 0.05, 1)
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"topology 99", Options{Topology: 99, MachinesPerCluster: 3}, "Topology"},
		{"topology -1", Options{Topology: -1}, "Topology"},
		{"redundant links -2", Options{Topology: StarCluster, MachinesPerCluster: 2, RedundantLinks: -2}, "RedundantLinks"},
		{"shards -1", Options{Shards: -1}, "Shards"},
		{"2^40 machines per cluster", Options{Topology: PathCluster, MachinesPerCluster: 1 << 40}, "int32"},
	} {
		if _, err := Color(h, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Color error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestBuildClusterGraphSharesH pins the CONGEST fast path at the library
// boundary: with one machine per cluster the communication network is the
// input graph itself, and building the cluster layer costs O(n) bytes, not a
// rebuilt copy of H's O(m) adjacency (at least 16·m bytes of packed pairs and
// CSR; m ≈ 1.12M here).
func TestBuildClusterGraphSharesH(t *testing.T) {
	h := mustClique(t, 1500)
	n := h.N()
	for name, opts := range map[string]Options{
		"singleton":           {Seed: 1},
		"tree-1-machine-3-rl": {Topology: TreeCluster, MachinesPerCluster: 1, RedundantLinks: 3, Seed: 1},
	} {
		build := func() {
			cg, _, err := buildClusterGraph(h, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cg.G != h {
				t.Fatalf("%s: the network is a copy of H, want H itself", name)
			}
		}
		build()
		best := ^uint64(0)
		for trial := 0; trial < 3; trial++ {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			build()
			runtime.ReadMemStats(&m1)
			best = min(best, m1.TotalAlloc-m0.TotalAlloc)
		}
		if limit := uint64(128 * n); best > limit {
			t.Fatalf("%s: building the cluster layer allocated %d bytes, want ≤ %d (O(n), n=%d, m=%d)", name, best, limit, n, h.M())
		}
	}
}

// TestColoringIndependentOfBuildOrder pins the CSR regression contract: the
// same edge set, inserted in different orders and orientations, must color
// byte-identically (adjacency is canonicalized by Build, and the pipeline
// consumes only that canonical form).
func TestColoringIndependentOfBuildOrder(t *testing.T) {
	ref := mustGNP(t, 120, 0.08, 31)
	var edges [][2]int
	for v := 0; v < ref.N(); v++ {
		for _, w := range ref.Neighbors(v) {
			if int(w) > v {
				edges = append(edges, [2]int{v, int(w)})
			}
		}
	}
	forward := NewGraphBuilder(ref.N())
	for _, e := range edges {
		if err := forward.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	backward := NewGraphBuilder(ref.N())
	for i := len(edges) - 1; i >= 0; i-- {
		if err := backward.AddEdge(edges[i][1], edges[i][0]); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Seed: 6}
	resA, err := Color(forward.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Color(backward.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := resA.Colors(), resB.Colors()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vertex %d colored %d vs %d depending on build order", i, a[i], b[i])
		}
	}
}

// TestNewGeneratorsColor runs the full public pipeline on each new scenario
// generator.
func TestNewGeneratorsColor(t *testing.T) {
	gens := map[string]func() (*Graph, error){
		"ba":          func() (*Graph, error) { return BarabasiAlbert(150, 3, 5) },
		"regular":     func() (*Graph, error) { return RandomRegular(150, 6, 5) },
		"ringcliques": func() (*Graph, error) { return RingOfCliques(6, 20) },
		"geometric":   func() (*Graph, error) { return RandomGeometric(200, 0.1, 5) },
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			h, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Color(h, Options{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(h, res.Colors()); err != nil {
				t.Fatal(err)
			}
			if res.NumColors() > h.MaxDegree()+1 {
				t.Fatalf("%d colors for Δ=%d", res.NumColors(), h.MaxDegree())
			}
		})
	}
}

// TestGeneratorErrorsPropagate pins the wrapper contract: invalid generator
// parameters surface as errors from the public API instead of silently
// degenerate graphs.
func TestGeneratorErrorsPropagate(t *testing.T) {
	if _, err := GNP(100, math.NaN(), 1); err == nil {
		t.Fatal("NaN p accepted by GNP wrapper")
	}
	if _, err := RandomGeometric(100, math.NaN(), 1); err == nil {
		t.Fatal("NaN radius accepted by RandomGeometric wrapper")
	}
	if _, err := BarabasiAlbert(10, 20, 1); err == nil {
		t.Fatal("attach >= n accepted by BarabasiAlbert wrapper")
	}
	if _, err := RandomRegular(5, 3, 1); err == nil {
		t.Fatal("odd n·d accepted by RandomRegular wrapper")
	}
	if _, err := RingOfCliques(3, 0); err == nil {
		t.Fatal("cliqueSize 0 accepted by RingOfCliques wrapper")
	}
	if _, err := Power(mustClique(t, 3), 0); err == nil {
		t.Fatal("Power(0) accepted by wrapper")
	}
}

// TestCliqueRejectsBadSizes: K_n past the CSR's edge capacity, and a
// negative n, are errors from the public API, not panics; small cliques,
// the empty one included, still build.
func TestCliqueRejectsBadSizes(t *testing.T) {
	for _, n := range []int{-1, -70000, 70000, 1 << 40} {
		if h, err := Clique(n); err == nil || h != nil {
			t.Errorf("Clique(%d) = %v, %v; want an error", n, h, err)
		}
	}
	if h := mustClique(t, 0); h.N() != 0 {
		t.Fatalf("Clique(0) has %d vertices", h.N())
	}
	if h := mustClique(t, 5); h.M() != 10 {
		t.Fatalf("Clique(5) has %d edges, want 10", h.M())
	}
}
