package benchwork

import (
	"testing"

	"clustercolor/internal/graph"
	"clustercolor/internal/network"
)

func TestGossipMachinesTraffic(t *testing.T) {
	g := graph.MustGNP(50, 0.2, graph.NewRand(3))
	sg, err := graph.NewShardedGraph(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := network.NewEngine(sg, GossipMachines(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 3; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Every round each machine messages every neighbor: 2m messages/round.
	if want := int64(3 * 2 * g.M()); eng.Stats().Messages != want {
		t.Fatalf("messages = %d, want %d", eng.Stats().Messages, want)
	}
}

func TestBatteryCrossSection(t *testing.T) {
	for i, run := range BatteryCrossSection(5) {
		tbl, err := run()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("job %d (%s): empty table", i, tbl.ID)
		}
	}
}
