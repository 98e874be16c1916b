package distsim

import (
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/sketch"
)

func buildCG(t *testing.T, h *graph.Graph, spec graph.ExpandSpec, seed uint64) *cluster.CG {
	t.Helper()
	rng := graph.NewRand(seed)
	exp, err := graph.Expand(h, spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := network.NewCostModel(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := cluster.New(h, exp, cost)
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

// collectRows is the vertex-level reference of the wave: one sketch.Collect
// of the same sample rows.
func collectRows(t testing.TB, cg *cluster.CG, phase string, samples *sketch.Arena[int8]) *sketch.Arena[int8] {
	t.Helper()
	var out sketch.Arena[int8]
	if _, err := sketch.Collect(cg, phase, sketch.MaxKernel{}, samples, &out, sketch.CollectOptions{}); err != nil {
		t.Fatal(err)
	}
	return &out
}

// assertMatchesVertexLevel checks the machine-level wave against the
// vertex-level cluster layer on the same instance and samples.
func assertMatchesVertexLevel(t *testing.T, cg *cluster.CG, trials int, seed uint64) network.LinkStats {
	t.Helper()
	samples := drawSamples(cg.H.N(), trials, graph.NewRand(seed))
	got, stats, _, err := FingerprintWave(cg, samples, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := collectRows(t, cg, "ref", samples)
	for v := 0; v < cg.H.N(); v++ {
		for i := 0; i < trials; i++ {
			if got[v][i] != want.Row(v)[i] {
				t.Fatalf("vertex %d trial %d: machine-level %d != vertex-level %d",
					v, i, got[v][i], want.Row(v)[i])
			}
		}
	}
	return stats
}

func TestWaveMatchesVertexLevelSingleton(t *testing.T) {
	rng := graph.NewRand(3)
	h := graph.MustGNP(60, 0.15, rng)
	cg := buildCG(t, h, graph.ExpandSpec{Topology: graph.TopologySingleton}, 5)
	stats := assertMatchesVertexLevel(t, cg, 16, 7)
	if stats.Messages == 0 {
		t.Fatal("no messages exchanged")
	}
}

func TestWaveMatchesVertexLevelDeepClusters(t *testing.T) {
	rng := graph.NewRand(9)
	h := graph.MustGNP(25, 0.25, rng)
	for _, spec := range []graph.ExpandSpec{
		{Topology: graph.TopologyStar, MachinesPerCluster: 5},
		{Topology: graph.TopologyPath, MachinesPerCluster: 6},
		{Topology: graph.TopologyTree, MachinesPerCluster: 8},
	} {
		t.Run(spec.Topology.String(), func(t *testing.T) {
			cg := buildCG(t, h, spec, 11)
			assertMatchesVertexLevel(t, cg, 24, 13)
		})
	}
}

func TestWaveImmuneToRedundantLinks(t *testing.T) {
	// The Section 1.1 hazard: multiple links between the same cluster pair
	// deliver the same sketch several times. Idempotent max-merging must
	// keep the result identical to the single-link case.
	rng := graph.NewRand(15)
	h := graph.MustGNP(20, 0.3, rng)
	cg := buildCG(t, h, graph.ExpandSpec{
		Topology:           graph.TopologyStar,
		MachinesPerCluster: 6,
		RedundantLinks:     4,
	}, 17)
	assertMatchesVertexLevel(t, cg, 24, 19)
}

func TestWaveRoundsBoundedByDilation(t *testing.T) {
	// The wave must complete within the provable WaveRoundBudget bound on
	// every topology, including deep path clusters where the support-tree
	// height equals the dilation.
	rng := graph.NewRand(21)
	h := graph.MustGNP(15, 0.3, rng)
	for _, spec := range []graph.ExpandSpec{
		{Topology: graph.TopologySingleton},
		{Topology: graph.TopologyStar, MachinesPerCluster: 4},
		{Topology: graph.TopologyPath, MachinesPerCluster: 7},
		{Topology: graph.TopologyTree, MachinesPerCluster: 9},
	} {
		t.Run(spec.Topology.String(), func(t *testing.T) {
			cg := buildCG(t, h, spec, 23)
			samples := drawSamples(h.N(), 8, graph.NewRand(25))
			_, stats, _, err := FingerprintWave(cg, samples, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if budget := WaveRoundBudget(cg.Dilation); stats.Rounds > budget {
				t.Fatalf("wave took %d rounds, budget %d (dilation %d)", stats.Rounds, budget, cg.Dilation)
			}
		})
	}
}

func TestWaveBandwidthObserved(t *testing.T) {
	// With a generous cap the wave completes within the CheckBudget
	// contract (comm rounds ≤ charged, per-link bits ≤ cap); with a tiny
	// cap the engine must reject oversized sketches.
	rng := graph.NewRand(27)
	h := graph.MustGNP(20, 0.3, rng)
	cg := buildCG(t, h, graph.ExpandSpec{Topology: graph.TopologyStar, MachinesPerCluster: 3}, 29)
	samples := drawSamples(h.N(), 32, graph.NewRand(31))
	_, stats, _, err := FingerprintWave(cg, samples, 1<<16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxLinkBits == 0 {
		t.Fatal("no bandwidth recorded")
	}
	sub, err := network.NewCostModel(cg.Cost().Bandwidth())
	if err != nil {
		t.Fatal(err)
	}
	collectRows(t, cg.WithCost(sub), "budget/wave", samples)
	if err := CheckBudget("wave", stats, sub.Rounds(), 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := CheckBudget("wave", stats, sub.Rounds(), stats.MaxLinkBits-1); err == nil {
		t.Fatal("CheckBudget accepted a cap below the observed per-link maximum")
	}
	if err := CheckBudget("wave", stats, int64(CommRounds(stats))-1, 0); err == nil {
		t.Fatal("CheckBudget accepted a charge below the executed rounds")
	}
	if _, _, _, err := FingerprintWave(cg, samples, 4, 1); err == nil {
		t.Fatal("4-bit cap accepted sketches of dozens of bits")
	}
}

func TestWaveValidation(t *testing.T) {
	h := graph.Path(3)
	cg := buildCG(t, h, graph.ExpandSpec{Topology: graph.TopologySingleton}, 1)
	if _, _, _, err := FingerprintWave(cg, drawSamples(1, 8, graph.NewRand(1)), 0, 1); err == nil {
		t.Fatal("sample count mismatch accepted")
	}
}

// TestWaveRejectsWrongLengthRow: a sketch message of the wrong width is a
// malformed message, which Step must return as an error rather than panic.
func TestWaveRejectsWrongLengthRow(t *testing.T) {
	cg := buildCG(t, graph.Path(3), graph.ExpandSpec{Topology: graph.TopologySingleton}, 1)
	wave, err := buildWaveMachines(cg, drawSamples(3, 8, graph.NewRand(2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []int{phaseExchange, phaseUp} {
		msg := network.Message{From: 1, To: 0, Payload: payload{phase: phase, row: make([]int8, 5)}}
		if _, err := wave[0].Step(0, []network.Message{msg}); err == nil {
			t.Fatalf("phase %d: a 5-cell row merged into an 8-cell sketch", phase)
		}
	}
}

func TestWaveIsolatedVertices(t *testing.T) {
	h := graph.NewBuilder(4).Build() // no edges
	cg := buildCG(t, h, graph.ExpandSpec{Topology: graph.TopologyStar, MachinesPerCluster: 3}, 33)
	samples := drawSamples(4, 8, graph.NewRand(35))
	got, _, _, err := FingerprintWave(cg, samples, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		for i := 0; i < 8; i++ {
			if got[v][i] != sketch.Empty {
				t.Fatalf("isolated vertex %d has non-empty sketch", v)
			}
		}
	}
}

func TestWaveEstimatesDegrees(t *testing.T) {
	// End-to-end: the machine-level wave supports the same degree
	// estimation as Lemma 5.7.
	rng := graph.NewRand(37)
	h := graph.MustGNP(80, 0.3, rng)
	cg := buildCG(t, h, graph.ExpandSpec{Topology: graph.TopologyStar, MachinesPerCluster: 2}, 39)
	samples := drawSamples(h.N(), 512, graph.NewRand(41))
	sketches, _, _, err := FingerprintWave(cg, samples, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	var est sketch.MaxEstimator[int8]
	for v := 0; v < h.N(); v++ {
		d := float64(h.Degree(v))
		e := est.Estimate(sketches[v])
		if d == 0 && e == 0 || (e > 0.6*d && e < 1.4*d) {
			ok++
		}
	}
	if ok < h.N()*9/10 {
		t.Fatalf("only %d/%d machine-level degree estimates within 40%%", ok, h.N())
	}
}
