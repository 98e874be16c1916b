package distsim

import (
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
)

// FuzzWave runs the machine-level fingerprint wave on arbitrary small
// cluster graphs: whatever (n, topology, cluster size, redundancy, edge
// list, seed) the fuzzer invents, the wave must terminate within its round
// budget (the engine's budget turns a would-be deadlock into an error),
// never panic, byte-match the vertex-level aggregation, and pass the
// CheckBudget contract.
func FuzzWave(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 0, 1, 5, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{12, 1, 2, 9, 0, 1, 0, 2, 0, 3})         // path clusters
	f.Add([]byte{8, 2, 5, 3, 0, 1, 2, 3, 4, 5, 6, 7})    // star clusters, redundant links
	f.Add([]byte{10, 3, 4, 7, 0, 9, 1, 8, 2, 7, 3, 6})   // tree clusters
	f.Add([]byte{4, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1}) // duplicate edges
	f.Add([]byte{20, 2, 3, 11})                          // edgeless
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := int(data[0]%20) + 2
		topo := []graph.ClusterTopology{
			graph.TopologySingleton, graph.TopologyPath, graph.TopologyStar, graph.TopologyTree,
		}[data[1]%4]
		spec := graph.ExpandSpec{
			Topology:           topo,
			MachinesPerCluster: int(data[2]%4) + 1,
			RedundantLinks:     int(data[2]%3) + 1,
		}
		seed := uint64(data[3])
		b := graph.NewBuilder(n)
		for i := 4; i+1 < len(data) && i < 84; i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u == v {
				continue
			}
			if err := b.AddEdge(u, v); err != nil {
				t.Fatalf("AddEdge(%d,%d) on n=%d: %v", u, v, n, err)
			}
		}
		h := b.Build()
		exp, err := graph.Expand(h, spec, graph.NewRand(seed^0xab))
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		cost, err := network.NewCostModel(64)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := cluster.New(h, exp, cost)
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		trials := int(seed%12) + 1
		samples := drawSamples(h.N(), trials, graph.NewRand(seed))
		got, stats, _, err := FingerprintWave(cg, samples, 0, 1)
		if err != nil {
			t.Fatalf("wave failed on n=%d m=%d topo=%v seed=%d: %v", h.N(), h.M(), topo, seed, err)
		}
		sub, err := network.NewCostModel(cg.Cost().Bandwidth())
		if err != nil {
			t.Fatal(err)
		}
		want := collectRows(t, cg.WithCost(sub), "fuzz/wave", samples)
		for v := 0; v < h.N(); v++ {
			for i := 0; i < trials; i++ {
				if got[v][i] != want.Row(v)[i] {
					t.Fatalf("vertex %d trial %d: machine %d != vertex %d (n=%d topo=%v seed=%d)",
						v, i, got[v][i], want.Row(v)[i], h.N(), topo, seed)
				}
			}
		}
		if budget := WaveRoundBudget(cg.Dilation); stats.Rounds > budget {
			t.Fatalf("wave took %d rounds, budget %d (dilation %d)", stats.Rounds, budget, cg.Dilation)
		}
		if err := CheckBudget("wave", stats, sub.Rounds(), 0); err != nil {
			t.Fatal(err)
		}
	})
}
