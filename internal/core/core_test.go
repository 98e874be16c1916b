package core

import (
	"math"
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
)

func buildCG(t *testing.T, h *graph.Graph, topo graph.ClusterTopology, size int, seed uint64) *cluster.CG {
	t.Helper()
	rng := graph.NewRand(seed)
	exp, err := graph.Expand(h, graph.ExpandSpec{Topology: topo, MachinesPerCluster: size}, rng)
	if err != nil {
		t.Fatal(err)
	}
	bw := 2*16 + 16
	cost, err := network.NewCostModel(bw)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := cluster.New(h, exp, cost)
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

func runAndVerify(t *testing.T, h *graph.Graph, params Params) *Stats {
	t.Helper()
	cg := buildCG(t, h, graph.TopologySingleton, 1, params.Seed+7)
	col, stats, err := Color(cg, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := coloring.VerifyComplete(h, col); err != nil {
		t.Fatal(err)
	}
	if col.CountColors() > h.MaxDegree()+1 {
		t.Fatalf("used %d colors for Δ=%d", col.CountColors(), h.MaxDegree())
	}
	return stats
}

func TestColorValidatesParams(t *testing.T) {
	h := graph.Path(4)
	cg := buildCG(t, h, graph.TopologySingleton, 1, 1)
	bad := DefaultParams(4)
	bad.Eps = 0.9
	if _, _, err := Color(cg, bad); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestColorSmallGraphs(t *testing.T) {
	tests := []struct {
		name string
		h    *graph.Graph
	}{
		{name: "single vertex", h: graph.NewBuilder(1).Build()},
		{name: "edgeless", h: graph.NewBuilder(6).Build()},
		{name: "single edge", h: graph.Path(2)},
		{name: "path", h: graph.Path(10)},
		{name: "cycle", h: graph.Cycle(9)},
		{name: "star", h: graph.Star(12)},
		{name: "clique", h: graph.Clique(12)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			runAndVerify(t, tt.h, DefaultParams(tt.h.N()))
		})
	}
}

func TestColorGNPLowDegreePath(t *testing.T) {
	rng := graph.NewRand(3)
	h := graph.MustGNP(300, 0.02, rng) // Δ ≈ 6 « 4·log² n → low-degree path
	stats := runAndVerify(t, h, DefaultParams(h.N()))
	if stats.Path != "low-degree" {
		t.Fatalf("path = %q, want low-degree (Δ=%d)", stats.Path, stats.Delta)
	}
}

func TestColorGNPHighDegreePath(t *testing.T) {
	rng := graph.NewRand(5)
	h := graph.MustGNP(300, 0.6, rng) // Δ ≈ 180 > threshold → high-degree path
	p := DefaultParams(h.N())
	p.DeltaLow = 50
	stats := runAndVerify(t, h, p)
	if stats.Path != "high-degree" {
		t.Fatalf("path = %q, want high-degree (Δ=%d)", stats.Path, stats.Delta)
	}
}

func TestColorPlantedACDHighDegree(t *testing.T) {
	rng := graph.NewRand(7)
	h, _, err := graph.PlantedACD(graph.PlantedACDSpec{
		NumCliques:     3,
		CliqueSize:     50,
		DropFraction:   0.04,
		ExternalDegree: 3,
		SparseN:        60,
		SparseP:        0.1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(h.N())
	p.DeltaLow = 20
	stats := runAndVerify(t, h, p)
	if stats.Path != "high-degree" {
		t.Fatalf("path = %q (Δ=%d)", stats.Path, stats.Delta)
	}
	if stats.NumCliques == 0 {
		t.Fatal("no almost-cliques found on planted instance")
	}
}

func TestColorCabalHeavyInstance(t *testing.T) {
	// Near-disjoint cliques with tiny external degree: everything is a
	// cabal; exercises matching + put-aside + donation.
	rng := graph.NewRand(9)
	h, _, err := graph.PlantedCabals(graph.CabalSpec{
		NumCliques: 3,
		CliqueSize: 60,
		External:   2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(h.N())
	p.DeltaLow = 20
	stats := runAndVerify(t, h, p)
	if stats.Path != "high-degree" {
		t.Fatalf("path = %q (Δ=%d)", stats.Path, stats.Delta)
	}
	if stats.NumCabals == 0 {
		t.Fatal("no cabals recognized on a cabal-heavy instance")
	}
}

func TestColorWithClusterTopologies(t *testing.T) {
	rng := graph.NewRand(11)
	h := graph.MustGNP(120, 0.1, rng)
	for _, topo := range []graph.ClusterTopology{graph.TopologyStar, graph.TopologyPath, graph.TopologyTree} {
		t.Run(topo.String(), func(t *testing.T) {
			cg := buildCG(t, h, topo, 4, 13)
			col, stats, err := Color(cg, DefaultParams(h.N()))
			if err != nil {
				t.Fatal(err)
			}
			if err := coloring.VerifyComplete(h, col); err != nil {
				t.Fatal(err)
			}
			if stats.Dilation == 0 {
				t.Fatal("multi-machine clusters should have positive dilation")
			}
		})
	}
}

func TestDilationMultipliesRounds(t *testing.T) {
	// Theorem 1.1/1.2: rounds scale linearly with d. Compare star
	// (dilation 1) vs path (dilation k-1) clusters on the same H.
	rng := graph.NewRand(15)
	h := graph.MustGNP(100, 0.1, rng)
	roundsFor := func(topo graph.ClusterTopology, size int) (int64, int) {
		cg := buildCG(t, h, topo, size, 17)
		p := DefaultParams(h.N())
		_, stats, err := Color(cg, p)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Rounds, stats.Dilation
	}
	starRounds, starD := roundsFor(graph.TopologyStar, 8)
	pathRounds, pathD := roundsFor(graph.TopologyPath, 8)
	if pathD <= starD {
		t.Fatalf("path dilation %d not above star %d", pathD, starD)
	}
	if pathRounds <= starRounds {
		t.Fatalf("rounds did not grow with dilation: star=%d path=%d", starRounds, pathRounds)
	}
}

func TestStatsAreCoherent(t *testing.T) {
	rng := graph.NewRand(19)
	h := graph.MustGNP(200, 0.3, rng)
	p := DefaultParams(h.N())
	p.DeltaLow = 30
	stats := runAndVerify(t, h, p)
	if stats.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
	if stats.MaxPayloadBits <= 0 {
		t.Fatal("no payload recorded")
	}
	if len(stats.PhaseRounds) == 0 {
		t.Fatal("no phase breakdown")
	}
	var phaseSum int64
	for _, r := range stats.PhaseRounds {
		phaseSum += r
	}
	if phaseSum < stats.Rounds {
		t.Fatalf("phase rounds %d < total %d", phaseSum, stats.Rounds)
	}
}

func TestParamsValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{name: "eps", mutate: func(p *Params) { p.Eps = 0 }},
		{name: "cap", mutate: func(p *Params) { p.ReservedCapFrac = 1 }},
		{name: "ell", mutate: func(p *Params) { p.EllFactor = 0 }},
		{name: "reserved", mutate: func(p *Params) { p.ReservedFactor = -1 }},
		{name: "inlier", mutate: func(p *Params) { p.InlierExtFactor = 0 }},
		{name: "matching", mutate: func(p *Params) { p.MatchingTrialFactor = 0 }},
		{name: "fallback", mutate: func(p *Params) { p.MaxFallbackRounds = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams(100)
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Fatal("invalid params accepted")
			}
		})
	}
	// Every field crossed with NaN, ±Inf and its bounds: each range check is
	// a negated in-range test, so NaN (which fails every comparison) and
	// infinities are rejected, while the closed ends of each range validate.
	nan, inf := math.NaN(), math.Inf(1)
	type field struct {
		name   string
		set    func(*Params, float64)
		reject []float64
		accept []float64
	}
	fields := []field{
		{"Eps", func(p *Params, x float64) { p.Eps = x }, []float64{nan, inf, -inf, 0, 1.0 / 3, -0.1}, []float64{1e-9, 0.33}},
		{"ReservedCapFrac", func(p *Params, x float64) { p.ReservedCapFrac = x }, []float64{nan, inf, -inf, 0, 1}, []float64{1e-9, 0.999}},
		{"EllFactor", func(p *Params, x float64) { p.EllFactor = x }, []float64{nan, inf, -inf, 0, -1}, []float64{1e-9, 1e300}},
		{"ReservedFactor", func(p *Params, x float64) { p.ReservedFactor = x }, []float64{nan, inf, -inf, 0, -1}, []float64{1e-9, 250}},
		{"SlackActivation", func(p *Params, x float64) { p.SlackActivation = x }, []float64{nan, inf, -inf, 0, -1, 1.0000001, 2}, []float64{1e-9, 1}},
		{"InlierExtFactor", func(p *Params, x float64) { p.InlierExtFactor = x }, []float64{nan, inf, -inf, 0, 0.999}, []float64{1, 1e300}},
		{"MatchingTrialFactor", func(p *Params, x float64) { p.MatchingTrialFactor = int(x) }, []float64{0, -1}, []float64{1}},
		{"MaxFallbackRounds", func(p *Params, x float64) { p.MaxFallbackRounds = int(x) }, []float64{0, -1}, []float64{1}},
		{"Shards", func(p *Params, x float64) { p.Shards = int(x) }, []float64{-1}, []float64{0, 4}},
	}
	for _, f := range fields {
		for _, x := range f.reject {
			p := DefaultParams(100)
			f.set(&p, x)
			if err := p.Validate(); err == nil {
				t.Errorf("%s = %v validated", f.name, x)
			}
		}
		for _, x := range f.accept {
			p := DefaultParams(100)
			f.set(&p, x)
			if err := p.Validate(); err != nil {
				t.Errorf("%s = %v rejected: %v", f.name, x, err)
			}
		}
	}
}

func TestEllGrowsWithN(t *testing.T) {
	p := DefaultParams(100)
	if p.Ell(1000) <= p.Ell(10) {
		t.Fatal("Ell not increasing in n")
	}
	if p.DeltaLowThreshold(1000) <= 0 {
		t.Fatal("threshold not positive")
	}
	p.DeltaLow = 42
	if p.DeltaLowThreshold(1000) != 42 {
		t.Fatal("explicit DeltaLow ignored")
	}
}

func TestReservedForRespectsCap(t *testing.T) {
	p := DefaultParams(100)
	delta := 100
	r := p.reservedFor(1e6, 10, delta)
	if float64(r) > p.ReservedCapFrac*float64(delta+1) {
		t.Fatalf("reserved %d exceeds cap", r)
	}
	if p.reservedFor(0, 0.1, delta) < 1 {
		t.Fatal("reserved floor broken")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	rng := graph.NewRand(21)
	h := graph.MustGNP(80, 0.2, rng)
	p := DefaultParams(h.N())
	p.Seed = 5
	cg1 := buildCG(t, h, graph.TopologySingleton, 1, 23)
	col1, _, err := Color(cg1, p)
	if err != nil {
		t.Fatal(err)
	}
	cg2 := buildCG(t, h, graph.TopologySingleton, 1, 23)
	col2, _, err := Color(cg2, p)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < h.N(); v++ {
		if col1.Get(v) != col2.Get(v) {
			t.Fatalf("run not deterministic at vertex %d", v)
		}
	}
}

func TestManySeedsAllProper(t *testing.T) {
	// Robustness sweep: the pipeline must produce a proper (Δ+1)-coloring
	// for every seed, on mixed instances.
	rng := graph.NewRand(25)
	h, _, err := graph.PlantedACD(graph.PlantedACDSpec{
		NumCliques:     2,
		CliqueSize:     40,
		DropFraction:   0.05,
		ExternalDegree: 4,
		SparseN:        50,
		SparseP:        0.15,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		p := DefaultParams(h.N())
		p.Seed = seed
		p.DeltaLow = 20
		runAndVerify(t, h, p)
	}
}

// TestPutAsideCoverMatchesPairwiseScan checks the one-pass forbidden-donor
// marking against a per-cabal scan: for every cabal, a vertex is forbidden
// exactly when it is in, or adjacent to, another cabal's put-aside set.
// Put-aside sets are disjoint and drawn so that vertices are covered by
// none, one, or several cabals, including several times by one.
func TestPutAsideCoverMatchesPairwiseScan(t *testing.T) {
	rng := graph.NewRand(11)
	h, err := graph.GNP(300, 0.03, rng)
	if err != nil {
		t.Fatal(err)
	}
	putAside := make([][]int, 9)
	for v, p := range rng.Perm(h.N())[:60] {
		if j := v % 10; j < len(putAside) {
			putAside[j] = append(putAside[j], p)
		}
	}
	putAside[4] = nil
	cover := coverPutAside(h, putAside)
	for self := range putAside {
		foreign := make([]bool, h.N())
		for j, ps := range putAside {
			if j == self {
				continue
			}
			for _, v := range ps {
				foreign[v] = true
				for _, u := range h.Neighbors(v) {
					foreign[u] = true
				}
			}
		}
		for v := range foreign {
			if got := cover.foreign(v, self); got != foreign[v] {
				t.Fatalf("cabal %d, vertex %d: forbidden %v, pairwise scan says %v", self, v, got, foreign[v])
			}
		}
	}
}
