package sct

import (
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
)

func testCG(t *testing.T, h *graph.Graph) *cluster.CG {
	t.Helper()
	rng := graph.NewRand(2)
	exp, err := graph.Expand(h, graph.ExpandSpec{Topology: graph.TopologyStar, MachinesPerCluster: 2}, rng)
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

// runOn fills the view of members from cg and col, runs the trial on it
// and stores the outcome back into col.
func runOn(t *testing.T, cg *cluster.CG, col *coloring.Coloring, members []int, opts Options, seed uint64) (*Result, error) {
	t.Helper()
	v, err := coloring.NewCliqueView(cg, col, members)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(v, opts, graph.NewRand(seed))
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

func TestRunColorsIsolatedCliqueCompletely(t *testing.T) {
	// A standalone clique with |S| = |K| ≤ |L(K)|: distinct palette colors
	// mean zero conflicts, so everyone gets colored in one shot.
	h := graph.Clique(40)
	cg := testCG(t, h)
	col := coloring.New(h.N(), h.MaxDegree())
	res, err := runOn(t, cg, col, irange(0, 40), Options{
		Phase:        "sct",
		Participants: irange(0, 40),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Colored != 40 {
		t.Fatalf("colored %d/40 in isolated clique", res.Colored)
	}
	if err := coloring.VerifyComplete(h, col); err != nil {
		t.Fatal(err)
	}
}

func TestRunLeavesOnlyExternalConflicts(t *testing.T) {
	// Two cliques joined by external edges (the Lemma 4.13 regime): after
	// one trial per clique, the uncolored count per clique is bounded by
	// the external degree scale, not the clique size.
	rng := graph.NewRand(5)
	g, blocks, err := graph.PlantedACD(graph.PlantedACDSpec{
		NumCliques:     2,
		CliqueSize:     50,
		ExternalDegree: 3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cg := testCG(t, g)
	col := coloring.New(g.N(), g.MaxDegree())
	// The cliques are vertex-disjoint, so their trials run one after the
	// other on one stream.
	trialRNG := graph.NewRand(7)
	for k := 0; k < 2; k++ {
		var members []int
		for v := 0; v < g.N(); v++ {
			if blocks[v] == k {
				members = append(members, v)
			}
		}
		v, err := coloring.NewCliqueView(cg, col, members)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(v, Options{
			Phase:        "sct",
			Participants: irange(0, len(members)),
		}, trialRNG)
		if err != nil {
			t.Fatalf("clique %d: %v", k, err)
		}
		uncolored := res.Tried - res.Colored
		if err := v.Store(col); err != nil {
			t.Fatal(err)
		}
		// Average external degree ≈ 6; Lemma 4.13 bounds leftovers by
		// O(e_K). 25 is a generous constant for 50-vertex cliques.
		if uncolored > 25 {
			t.Fatalf("clique %d left %d/50 uncolored, want O(e_K)", k, uncolored)
		}
	}
	if err := coloring.VerifyProper(g, col); err != nil {
		t.Fatal(err)
	}
}

func TestRunRespectsReservedColors(t *testing.T) {
	h := graph.Clique(20)
	cg := testCG(t, h)
	col := coloring.New(h.N(), h.MaxDegree()) // colors 1..20
	res, err := runOn(t, cg, col, irange(0, 20), Options{
		Phase:        "sct",
		Participants: irange(0, 15),
		ReservedMax:  5,
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Colored != 15 {
		t.Fatalf("colored %d/15", res.Colored)
	}
	for v := 0; v < 20; v++ {
		if c := col.Get(v); c != coloring.None && c <= 5 {
			t.Fatalf("vertex %d got reserved color %d", v, c)
		}
	}
}

func TestRunRejectsTooManyParticipants(t *testing.T) {
	h := graph.Clique(10)
	cg := testCG(t, h)
	col := coloring.New(h.N(), h.MaxDegree()) // 10 colors
	_, err := runOn(t, cg, col, irange(0, 10), Options{
		Phase:        "sct",
		Participants: irange(0, 10),
		ReservedMax:  5, // only 5 non-reserved colors for 10 participants
	}, 11)
	if err == nil {
		t.Fatal("participant overflow accepted")
	}
}

func TestRunRejectsColoredParticipant(t *testing.T) {
	h := graph.Clique(5)
	cg := testCG(t, h)
	col := coloring.New(h.N(), h.MaxDegree())
	if err := col.Set(2, 1); err != nil {
		t.Fatal(err)
	}
	_, err := runOn(t, cg, col, irange(0, 5), Options{
		Phase:        "sct",
		Participants: irange(0, 5),
	}, 13)
	if err == nil {
		t.Fatal("colored participant accepted")
	}
}

func TestRunSkipsUsedPaletteColors(t *testing.T) {
	// Pre-color some members; the trial must only assign palette colors,
	// so the result stays proper.
	h := graph.Clique(30)
	cg := testCG(t, h)
	col := coloring.New(h.N(), h.MaxDegree())
	for v := 0; v < 10; v++ {
		if err := col.Set(v, int32(v+1)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := runOn(t, cg, col, irange(0, 30), Options{
		Phase:        "sct",
		Participants: irange(10, 30),
	}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Colored != 20 {
		t.Fatalf("colored %d/20", res.Colored)
	}
	if err := coloring.VerifyComplete(h, col); err != nil {
		t.Fatal(err)
	}
}

func TestRunChargesRounds(t *testing.T) {
	h := graph.Clique(10)
	cg := testCG(t, h)
	col := coloring.New(h.N(), h.MaxDegree())
	before := cg.Cost().Rounds()
	if _, err := runOn(t, cg, col, irange(0, 10), Options{Phase: "sct", Participants: irange(0, 5)}, 17); err != nil {
		t.Fatal(err)
	}
	if cg.Cost().Rounds() <= before {
		t.Fatal("no rounds charged")
	}
}
