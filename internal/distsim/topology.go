package distsim

import (
	"clustercolor/internal/cluster"
)

// crossEdge is one inter-cluster link incident to a machine.
type crossEdge struct {
	peer        int32 // peer machine
	peerCluster int32 // peer's H-vertex
}

// machineTopo is the static wiring every distsim protocol machine runs on:
// per machine its cluster, support-tree parent/children, and incident
// inter-cluster links. It is read-only after construction and shared by all
// machines of an engine run (machines know their own links and tree edges —
// exactly the local knowledge the model grants them).
type machineTopo struct {
	cluster  []int32 // machine -> H-vertex
	leader   []bool  // machine is its cluster's support-tree root
	parent   []int32 // tree parent machine (-1 for leaders)
	children [][]int32
	cross    [][]crossEdge
	leaderOf []int32 // H-vertex -> leader machine
}

func newMachineTopo(cg *cluster.CG) *machineTopo {
	g := cg.G
	t := &machineTopo{
		cluster:  cg.ClusterOf,
		leader:   make([]bool, g.N()),
		parent:   make([]int32, g.N()),
		children: make([][]int32, g.N()),
		cross:    make([][]crossEdge, g.N()),
		leaderOf: make([]int32, cg.H.N()),
	}
	for v := 0; v < cg.H.N(); v++ {
		t.leaderOf[v] = cg.Leader[v]
	}
	for m := 0; m < g.N(); m++ {
		v := cg.ClusterOf[m]
		t.leader[m] = cg.Leader[v] == int32(m)
		t.parent[m] = cg.TreeParent[m]
		for _, nb := range g.Neighbors(m) {
			peer := int(nb)
			switch {
			case cg.ClusterOf[peer] != v:
				t.cross[m] = append(t.cross[m], crossEdge{peer: nb, peerCluster: cg.ClusterOf[peer]})
			case int(cg.TreeParent[peer]) == m:
				t.children[m] = append(t.children[m], nb)
			}
		}
	}
	return t
}
