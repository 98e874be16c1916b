package putaside

import (
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

// cabalInstance builds the Section 2.4 setting: numCliques cliques of size
// s, each vertex with about ext external neighbors.
func cabalInstance(t *testing.T, numCliques, s, ext int, seed uint64) (*graph.Graph, [][]int) {
	t.Helper()
	rng := graph.NewRand(seed)
	g, blocks, err := graph.PlantedCabals(graph.CabalSpec{
		NumCliques: numCliques,
		CliqueSize: s,
		External:   ext,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cabals := make([][]int, numCliques)
	for v := 0; v < g.N(); v++ {
		cabals[blocks[v]] = append(cabals[blocks[v]], v)
	}
	return g, cabals
}

func TestComputePutAsideProperties(t *testing.T) {
	g, cabals := cabalInstance(t, 4, 40, 2, 3)
	cg := testCG(t, g)
	col := coloring.New(g.N(), g.MaxDegree())
	r := 5
	ps, err := ComputePutAside(cg, col, ComputeOptions{
		Phase:  "pa",
		Cabals: cabals,
		R:      r,
	}, graph.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 4 {
		t.Fatalf("got %d put-aside sets", len(ps))
	}
	inSet := map[int]int{}
	for i, p := range ps {
		// Property 1: |P_K| = r (dense instances have plenty of eligible
		// vertices).
		if len(p) != r {
			t.Fatalf("cabal %d put-aside size %d, want %d", i, len(p), r)
		}
		for _, v := range p {
			if col.IsColored(v) {
				t.Fatalf("colored vertex %d in put-aside set", v)
			}
			inSet[v] = i
		}
	}
	// Property 2: no edges between different sets.
	for v, i := range inSet {
		for _, u := range g.Neighbors(v) {
			if j, ok := inSet[int(u)]; ok && j != i {
				t.Fatalf("edge between put-aside sets %d,%d", i, j)
			}
		}
	}
	// Property 3: few members adjacent to foreign put-aside vertices.
	for i, members := range cabals {
		frac := foreignAdjacencyFraction(cg, members, i, ps)
		if frac > 0.5 {
			t.Fatalf("cabal %d: %.2f of members adjacent to foreign put-aside sets", i, frac)
		}
	}
}

func TestComputePutAsideRespectsEligibility(t *testing.T) {
	g, cabals := cabalInstance(t, 2, 30, 1, 7)
	cg := testCG(t, g)
	col := coloring.New(g.N(), g.MaxDegree())
	eligible := func(v int) bool { return v%2 == 0 }
	ps, err := ComputePutAside(cg, col, ComputeOptions{
		Phase:    "pa",
		Cabals:   cabals,
		Eligible: eligible,
		R:        3,
	}, graph.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		for _, v := range p {
			if v%2 != 0 {
				t.Fatalf("ineligible vertex %d selected", v)
			}
		}
	}
}

func TestComputePutAsideValidation(t *testing.T) {
	g, cabals := cabalInstance(t, 2, 10, 1, 11)
	cg := testCG(t, g)
	col := coloring.New(g.N(), g.MaxDegree())
	if _, err := ComputePutAside(cg, col, ComputeOptions{Phase: "pa", Cabals: cabals, R: -1}, graph.NewRand(1)); err == nil {
		t.Fatal("negative r accepted")
	}
	overlap := [][]int{cabals[0], cabals[0]}
	if _, err := ComputePutAside(cg, col, ComputeOptions{Phase: "pa", Cabals: overlap, R: 1}, graph.NewRand(1)); err == nil {
		t.Fatal("overlapping cabals accepted")
	}
}

// colorAllBut colors every vertex except the given set, using distinct
// colors within each cabal (a proper coloring by construction when cliques
// are near-disjoint), retrying colors against neighbors.
func colorAllBut(t *testing.T, g *graph.Graph, col *coloring.Coloring, skip map[int]bool) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if skip[v] {
			continue
		}
		pal := coloring.Palette(g, col, v)
		if len(pal) == 0 {
			t.Fatalf("no palette color for %d while preparing instance", v)
		}
		if err := col.Set(v, pal[0]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestColorPutAsideViaFreeColors(t *testing.T) {
	// Large free palette: the TryFreeColors path should color everything.
	g, cabals := cabalInstance(t, 2, 30, 2, 13)
	cg := testCG(t, g)
	// Δ ≈ 33, so the color space is much larger than each 30-clique:
	// plenty of free colors.
	col := coloring.New(g.N(), g.MaxDegree())
	skip := map[int]bool{cabals[0][3]: true, cabals[0][7]: true}
	colorAllBut(t, g, col, skip)
	res, err := colorPutAsideOn(t, cg, col, cabals[0], []int{cabals[0][3], cabals[0][7]}, DonateOptions{
		Phase:              "don",
		FreeColorThreshold: 1,
		BlockSize:          8,
		SampleTries:        16,
	}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.ViaFreeColors != 2 || res.Uncolored != 0 {
		t.Fatalf("result %+v, want 2 via free colors", res)
	}
	if err := coloring.VerifyComplete(g, col); err != nil {
		t.Fatal(err)
	}
}

func TestColorPutAsideViaDonation(t *testing.T) {
	// The donation regime: a clique of exactly Δ+1 vertices (its own Δ is
	// the graph's) with every color used once — the clique palette is
	// empty, so donation is the only route... except swaps. We engineer
	// it: clique K_n as the whole graph, n-1 colored with distinct colors,
	// 1 uncolored, color space n. One free color remains but we set the
	// threshold high to force the donor path; with a free replacement
	// color available, donors exist.
	n := 40
	g := graph.Clique(n)
	cg := testCG(t, g)
	col := coloring.New(n, g.MaxDegree()) // colors 1..n
	skip := map[int]bool{5: true}
	colorAllBut(t, g, col, skip)
	res, err := colorPutAsideOn(t, cg, col, irange(0, n), []int{5}, DonateOptions{
		Phase:              "don",
		FreeColorThreshold: 1 << 20, // force donation path
		BlockSize:          8,
		SampleTries:        32,
	}, 17)
	if err != nil {
		t.Fatal(err)
	}
	if res.ViaDonation+res.ViaFallback < 1 || res.Uncolored != 0 {
		t.Fatalf("result %+v, want vertex colored", res)
	}
	if err := coloring.VerifyComplete(g, col); err != nil {
		t.Fatal(err)
	}
}

// colorPutAsideOn fills the view of cabal from cg and col, runs
// ColorPutAside on it with the put-aside vertices as member indices, and
// stores the outcome back into col.
func colorPutAsideOn(t *testing.T, cg *cluster.CG, col *coloring.Coloring, cabal, putAside []int,
	opts DonateOptions, seed uint64) (*DonateResult, error) {
	t.Helper()
	v, err := coloring.NewCliqueView(cg, col, cabal)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range putAside {
		opts.PutAside = append(opts.PutAside, slices.Index(cabal, u))
	}
	res, err := ColorPutAside(v, opts, graph.NewRand(seed))
	if err == nil {
		err = v.Store(col)
	}
	return res, err
}

func irange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestColorPutAsideSection24Setting(t *testing.T) {
	// The full Section 2.4 shape: several near-cliques with r external
	// neighbors each; r vertices per cabal stay uncolored; the donation
	// machinery must finish them while keeping the coloring proper.
	g, cabals := cabalInstance(t, 3, 50, 3, 19)
	cg := testCG(t, g)
	col := coloring.New(g.N(), g.MaxDegree())
	r := 4
	ps, err := ComputePutAside(cg, col, ComputeOptions{Phase: "pa", Cabals: cabals, R: r}, graph.NewRand(21))
	if err != nil {
		t.Fatal(err)
	}
	skip := map[int]bool{}
	for _, p := range ps {
		for _, v := range p {
			skip[v] = true
		}
	}
	colorAllBut(t, g, col, skip)
	totalDonated, totalFree, totalFallback := 0, 0, 0
	for i, members := range cabals {
		res, err := colorPutAsideOn(t, cg, col, members, ps[i], DonateOptions{
			Phase:              "don",
			FreeColorThreshold: 4 * r,
			BlockSize:          8,
			SampleTries:        32,
		}, 23+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Uncolored != 0 {
			t.Fatalf("cabal %d: %d put-aside vertices left uncolored (%+v)", i, res.Uncolored, res)
		}
		totalDonated += res.ViaDonation
		totalFree += res.ViaFreeColors
		totalFallback += res.ViaFallback
	}
	if err := coloring.VerifyComplete(g, col); err != nil {
		t.Fatal(err)
	}
	if totalDonated+totalFree == 0 {
		t.Fatalf("all vertices went through fallback (donated=%d free=%d fallback=%d)", totalDonated, totalFree, totalFallback)
	}
}

func TestColorPutAsideValidation(t *testing.T) {
	g := graph.Clique(4)
	cg := testCG(t, g)
	col := coloring.New(4, 3)
	if _, err := colorPutAsideOn(t, cg, col, irange(0, 4), []int{0}, DonateOptions{Phase: "x", BlockSize: 0, SampleTries: 1}, 1); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := colorPutAsideOn(t, cg, col, irange(0, 4), []int{0}, DonateOptions{Phase: "x", BlockSize: 4, SampleTries: 0}, 1); err == nil {
		t.Fatal("zero sample tries accepted")
	}
	_ = col.Set(0, 1)
	if _, err := colorPutAsideOn(t, cg, col, irange(0, 4), []int{0}, DonateOptions{Phase: "x", BlockSize: 4, SampleTries: 1}, 1); err == nil {
		t.Fatal("colored put-aside vertex accepted")
	}
}

func TestColorPutAsideEmptySet(t *testing.T) {
	g := graph.Clique(4)
	cg := testCG(t, g)
	col := coloring.New(4, 3)
	res, err := colorPutAsideOn(t, cg, col, irange(0, 4), nil, DonateOptions{Phase: "x", BlockSize: 4, SampleTries: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Uncolored != 0 || res.ViaDonation != 0 {
		t.Fatalf("empty put-aside result %+v", res)
	}
}

// foreignAdjacencyFraction measures Property 3 of Lemma 4.18: the fraction
// of a cabal's members adjacent to put-aside vertices of other cabals.
func foreignAdjacencyFraction(cg *cluster.CG, cabal []int, cabalIdx int, putAside [][]int) float64 {
	foreign := make(map[int]bool)
	for j, ps := range putAside {
		if j == cabalIdx {
			continue
		}
		for _, v := range ps {
			foreign[v] = true
		}
	}
	if len(cabal) == 0 {
		return 0
	}
	hit := 0
	for _, v := range cabal {
		for _, u := range cg.H.Neighbors(v) {
			if foreign[int(u)] {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(cabal))
}
