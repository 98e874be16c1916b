package matching

import (
	"math/bits"
	"slices"
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
)

func testCG(t *testing.T, h *graph.Graph) *cluster.CG {
	t.Helper()
	rng := graph.NewRand(2)
	exp, err := graph.Expand(h, graph.ExpandSpec{Topology: graph.TopologySingleton}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := network.NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := cluster.New(h, exp, cost)
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

// denseWithAntiEdges builds one almost-clique of size n with a planted
// perfect anti-matching: vertices 2i and 2i+1 are non-adjacent for
// i < plantedPairs, everything else is complete.
func denseWithAntiEdges(t *testing.T, n, plantedPairs int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	isAnti := func(u, v int) bool {
		if u > v {
			u, v = v, u
		}
		return v == u+1 && u%2 == 0 && u/2 < plantedPairs
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !isAnti(u, v) {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}

// viewOf fills the clique view of members from cg and col.
func viewOf(t *testing.T, cg *cluster.CG, col *coloring.Coloring, members []int) *coloring.CliqueView {
	t.Helper()
	v, err := coloring.NewCliqueView(cg, col, members)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func irange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestSamplingCreatesRepeats(t *testing.T) {
	// A clique of 60 with 20 planted anti-pairs and Δ ≈ 59: random trials
	// should find several same-colored pairs.
	g := denseWithAntiEdges(t, 60, 20)
	cg := testCG(t, g)
	col := coloring.New(g.N(), g.MaxDegree())
	v := viewOf(t, cg, col, irange(0, 60))
	m, err := Sampling(v, SamplingOptions{
		Phase:  "cm",
		Rounds: 20,
	}, graph.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Store(col); err != nil {
		t.Fatal(err)
	}
	if m == 0 {
		t.Fatal("sampling produced no repeated colors")
	}
	if err := coloring.VerifyProper(g, col); err != nil {
		t.Fatal(err)
	}
	// Lemma 4.9: a vertex is colored iff it provides reuse slack (its
	// color is shared within K).
	counts := map[int32]int{}
	for v := 0; v < 60; v++ {
		if c := col.Get(v); c != coloring.None {
			counts[c]++
		}
	}
	for c, n := range counts {
		if n < 2 {
			t.Fatalf("color %d used by a single vertex (no reuse slack)", c)
		}
	}
	// Measured M_K must match the coloring.
	cp := coloring.BuildCliquePalette(cg, col, irange(0, 60))
	if cp.Repeats() != m {
		t.Fatalf("reported repeats %d != measured %d", m, cp.Repeats())
	}
}

func TestSamplingAvoidsReservedColors(t *testing.T) {
	g := denseWithAntiEdges(t, 40, 15)
	cg := testCG(t, g)
	col := coloring.New(g.N(), g.MaxDegree())
	v := viewOf(t, cg, col, irange(0, 40))
	if _, err := Sampling(v, SamplingOptions{
		Phase:       "cm",
		ReservedMax: 10,
		Rounds:      15,
	}, graph.NewRand(5)); err != nil {
		t.Fatal(err)
	}
	if err := v.Store(col); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 40; v++ {
		if c := col.Get(v); c != coloring.None && c <= 10 {
			t.Fatalf("vertex %d took reserved color %d", v, c)
		}
	}
}

func TestSamplingValidation(t *testing.T) {
	g := graph.Clique(4)
	cg := testCG(t, g)
	col := coloring.New(4, 3)
	if _, err := Sampling(viewOf(t, cg, col, nil), SamplingOptions{Phase: "x"}, graph.NewRand(1)); err == nil {
		t.Fatal("empty clique accepted")
	}
	if _, err := Sampling(viewOf(t, cg, col, irange(0, 4)), SamplingOptions{Phase: "x", ReservedMax: 4}, graph.NewRand(1)); err == nil {
		t.Fatal("reserved covering space accepted")
	}
}

func TestSamplingTargetStopsEarly(t *testing.T) {
	g := denseWithAntiEdges(t, 60, 25)
	cg := testCG(t, g)
	col := coloring.New(g.N(), g.MaxDegree())
	m, err := Sampling(viewOf(t, cg, col, irange(0, 60)), SamplingOptions{
		Phase:         "cm",
		Rounds:        100,
		TargetRepeats: 3,
	}, graph.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	if m < 3 {
		t.Fatalf("target not reached: %d", m)
	}
}

func TestFingerprintMatchingFindsPlantedAntiEdges(t *testing.T) {
	// The cabal regime: large clique, few anti-edges (a_K = O(log n)).
	n := 80
	planted := 6
	g := denseWithAntiEdges(t, n, planted)
	cg := testCG(t, g)
	k := 12 * bits.Len(uint(n)) // Θ(log n) trials with generous constant
	pairs, err := FingerprintMatching(viewOf(t, cg, coloring.New(n, g.MaxDegree()), irange(0, n)), FingerprintOptions{
		Phase:   "fm",
		Members: irange(0, n),
		Trials:  k,
	}, graph.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no anti-edges found")
	}
	// Every returned pair must be a planted anti-edge (they are the only
	// non-edges), and pairs must be vertex-disjoint (checked inside, but
	// re-verify).
	seen := map[int]bool{}
	for _, p := range pairs {
		if g.HasEdge(p[0], p[1]) {
			t.Fatalf("pair %v is an edge", p)
		}
		if seen[p[0]] || seen[p[1]] {
			t.Fatalf("pair %v reuses a vertex", p)
		}
		seen[p[0]] = true
		seen[p[1]] = true
	}
}

func TestFingerprintMatchingSizeTracksAntiDegree(t *testing.T) {
	// Lemma 6.2 shape: more planted anti-edges → more matched pairs, up to
	// the Θ(log n) cap. Compare 2 vs 12 planted pairs over seeds.
	n := 100
	k := 10 * bits.Len(uint(n))
	total2, total12 := 0, 0
	for seed := uint64(0); seed < 5; seed++ {
		for _, planted := range []int{2, 12} {
			g := denseWithAntiEdges(t, n, planted)
			cg := testCG(t, g)
			pairs, err := FingerprintMatching(viewOf(t, cg, coloring.New(n, g.MaxDegree()), irange(0, n)), FingerprintOptions{
				Phase:   "fm",
				Members: irange(0, n),
				Trials:  k,
			}, graph.NewRand(100+seed))
			if err != nil {
				t.Fatal(err)
			}
			if planted == 2 {
				total2 += len(pairs)
			} else {
				total12 += len(pairs)
			}
		}
	}
	if total12 <= total2 {
		t.Fatalf("matching size did not grow with anti-degree: %d (12 planted) vs %d (2 planted)", total12, total2)
	}
}

func TestFingerprintMatchingValidation(t *testing.T) {
	g := graph.Clique(4)
	cg := testCG(t, g)
	col := coloring.New(4, 3)
	v := viewOf(t, cg, col, irange(0, 4))
	if _, err := FingerprintMatching(v, FingerprintOptions{Phase: "x", Members: irange(0, 4)}, graph.NewRand(1)); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := FingerprintMatching(v, FingerprintOptions{Phase: "x", Members: []int{0}, Trials: 8}, graph.NewRand(1)); err == nil {
		t.Fatal("single-vertex cabal accepted")
	}
	if _, err := FingerprintMatching(v, FingerprintOptions{Phase: "x", Members: []int{0, 1, 1, 2}, Trials: 8}, graph.NewRand(1)); err == nil {
		t.Fatal("cabal listing a member twice accepted")
	}
	if _, err := coloring.NewCliqueView(cg, col, []int{0, 1, 1, 2}); err == nil {
		t.Fatal("clique listing a vertex twice accepted")
	}
}

func TestFingerprintMatchingOnTrueCliqueFindsNothing(t *testing.T) {
	g := graph.Clique(50)
	cg := testCG(t, g)
	pairs, err := FingerprintMatching(viewOf(t, cg, coloring.New(50, g.MaxDegree()), irange(0, 50)), FingerprintOptions{
		Phase:   "fm",
		Members: irange(0, 50),
		Trials:  64,
	}, graph.NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Fatalf("found %d anti-edges in a complete clique", len(pairs))
	}
}

func TestColorPairsProducesProperSameColoredPairs(t *testing.T) {
	n := 60
	g := denseWithAntiEdges(t, n, 8)
	cg := testCG(t, g)
	col := coloring.New(g.N(), g.MaxDegree())
	v := viewOf(t, cg, col, irange(0, n))
	pairs, err := FingerprintMatching(v, FingerprintOptions{
		Phase:   "fm",
		Members: irange(0, n),
		Trials:  80,
	}, graph.NewRand(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Skip("no pairs found at this seed")
	}
	colored, err := ColorPairs(v, pairs, 5, "color", graph.NewRand(15))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Store(col); err != nil {
		t.Fatal(err)
	}
	if colored != len(pairs) {
		t.Fatalf("colored %d/%d pairs", colored, len(pairs))
	}
	if err := coloring.VerifyProper(g, col); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		cu, cw := col.Get(p[0]), col.Get(p[1])
		if cu == coloring.None || cu != cw {
			t.Fatalf("pair %v colors %d,%d not equal", p, cu, cw)
		}
		if cu <= 5 {
			t.Fatalf("pair %v used reserved color %d", p, cu)
		}
	}
}

func TestColorPairsValidation(t *testing.T) {
	g := graph.Clique(4)
	cg := testCG(t, g)
	col := coloring.New(4, 3)
	if _, err := ColorPairs(viewOf(t, cg, col, irange(0, 4)), nil, 4, "x", graph.NewRand(1)); err == nil {
		t.Fatal("reserved covering space accepted")
	}
}

// TestSamplingAllocsFlatInRounds pins that a Sampling round allocates
// nothing: on one prebuilt view with no charge hook, eight rounds allocate
// exactly what one round does (the class buckets and the group buffer are
// allocated once per call).
func TestSamplingAllocsFlatInRounds(t *testing.T) {
	g := denseWithAntiEdges(t, 60, 20)
	v := viewOf(t, testCG(t, g), coloring.New(g.N(), g.MaxDegree()), irange(0, 60))
	v.CG = nil
	snap := slices.Clone(v.Colors)
	rng := graph.NewRand(3)
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() {
			copy(v.Colors, snap)
			if _, err := Sampling(v, SamplingOptions{Phase: "a", Rounds: rounds}, rng); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, eight := allocs(1), allocs(8)
	if eight != one {
		t.Fatalf("Rounds 8 allocates %v per call, Rounds 1 %v: a round allocates", eight, one)
	}
	t.Logf("%v allocations per call at Rounds 1 and 8", one)
}
