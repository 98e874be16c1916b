// Package cluster implements the cluster-graph layer of the paper's model
// (Definition 3.1 and Section 3.2): a graph H whose vertices are disjoint
// connected clusters of machines in a communication network G.
//
// Each cluster elects a leader and computes a support tree spanning its
// machines. A round on H consists of a broadcast down the support trees, a
// computation on inter-cluster links, and an aggregation back up — costing
// O(d) rounds on G, where d is the dilation (maximum support-tree diameter).
//
// Algorithm code interacts with the layer through primitives that both
// compute the information a vertex legitimately learns and charge the
// corresponding rounds and bandwidth to a network.CostModel:
//
//   - ChargeHRounds: the cost of H-rounds of per-neighbor exchange (the
//     neighbor-sketch waves of internal/sketch's Collect charge through it),
//   - LeaderRound: the canonical H-round at machine level — broadcast down
//     the trees, exchange over inter-cluster links, aggregate back up,
//   - BFSForest (Lemma 3.2): parallel BFS in vertex-disjoint subgraphs,
//   - PrefixSums (Lemma 3.3): ordered-tree prefix sums,
//   - Broadcast/Aggregate helpers for within-cluster dissemination.
package cluster

import (
	"fmt"

	"clustercolor/internal/graph"
	"clustercolor/internal/network"
)

// CG is a cluster graph: H on top of a communication network G.
type CG struct {
	// H is the graph to color (vertices = clusters).
	H *graph.Graph
	// G is the communication network (vertices = machines).
	G *graph.Graph
	// ClusterOf maps machines to H-vertices.
	ClusterOf []int32
	// Leader is the support-tree root per H-vertex: its lowest machine.
	Leader []int32
	// TreeParent maps each machine to its parent machine in its cluster's
	// support tree (-1 for leaders).
	TreeParent []int32
	// TreeDepth maps each machine to its depth in its support tree.
	TreeDepth []int32
	// Dilation is the maximum support-tree height over all clusters; the
	// paper's d is within a factor two of this.
	Dilation int

	cost *network.CostModel
	// machineN is the machine count identifier widths are computed from. It
	// is recorded at construction so cost accounting (IDBits) works on
	// headless views where G itself is nil.
	machineN int
}

// New builds the cluster layer from an expansion of H. Every cluster must be
// connected inside G (Definition 3.1 requires it). The cost model accumulates
// rounds for all subsequent primitives.
func New(h *graph.Graph, exp *graph.Expansion, cost *network.CostModel) (*CG, error) {
	if cost == nil {
		return nil, fmt.Errorf("cluster: nil cost model")
	}
	if exp.Clusters() != h.N() {
		return nil, fmt.Errorf("cluster: expansion has %d clusters for %d vertices", exp.Clusters(), h.N())
	}
	cg := &CG{
		H:          h,
		G:          exp.G,
		ClusterOf:  exp.ClusterOf,
		Leader:     make([]int32, h.N()),
		TreeParent: make([]int32, exp.G.N()),
		TreeDepth:  make([]int32, exp.G.N()),
		cost:       cost,
		machineN:   exp.G.N(),
	}
	for i := range cg.TreeParent {
		cg.TreeParent[i] = -1
		cg.TreeDepth[i] = -1
	}
	// Support trees for all clusters are built by one scratch BFS: clusters
	// are vertex-disjoint, so a single depth array (-1 = unvisited) and a
	// reused queue serve every cluster, making construction O(|G| + |E(G)|)
	// total instead of O(n) fresh arrays per cluster. A one-machine cluster
	// is its own support tree, so it skips the scan of its links — in the
	// CONGEST case that is every cluster, and construction is O(|G|).
	var queue []int32
	for v := 0; v < h.N(); v++ {
		ms := exp.Machines(v)
		if len(ms) == 0 {
			return nil, fmt.Errorf("cluster: vertex %d has no machines", v)
		}
		// Machine lists are ascending, so the leader is the first.
		leader := ms[0]
		cg.Leader[v] = leader
		cg.TreeDepth[leader] = 0
		if len(ms) == 1 {
			continue
		}
		queue = append(queue[:0], leader)
		height := int32(0)
		for head := 0; head < len(queue); head++ {
			m := queue[head]
			for _, w := range exp.G.Neighbors(int(m)) {
				if cg.TreeDepth[w] >= 0 || exp.ClusterOf[w] != int32(v) {
					continue
				}
				cg.TreeDepth[w] = cg.TreeDepth[m] + 1
				cg.TreeParent[w] = m
				if cg.TreeDepth[w] > height {
					height = cg.TreeDepth[w]
				}
				queue = append(queue, w)
			}
		}
		for _, m := range ms {
			if cg.TreeDepth[m] < 0 {
				return nil, fmt.Errorf("cluster: vertex %d disconnected at machine %d", v, m)
			}
		}
		cg.Dilation = max(cg.Dilation, int(height))
	}
	return cg, nil
}

// NewAbstract builds a cluster-graph view whose machine-level structure is
// accounted entirely through the cost model: vertex-level primitives work
// (they need only H, the dilation, and the charger), while machine-level
// tree operations are unavailable. Virtual graphs with overlapping supports
// (Appendix A) use this view with a congestion-multiplied cost model.
func NewAbstract(h *graph.Graph, g *graph.Graph, dilation int, cost *network.CostModel) (*CG, error) {
	if cost == nil {
		return nil, fmt.Errorf("cluster: nil cost model")
	}
	if dilation < 0 {
		return nil, fmt.Errorf("cluster: negative dilation %d", dilation)
	}
	return &CG{H: h, G: g, Dilation: dilation, cost: cost, machineN: g.N()}, nil
}

// NewHeadless builds a cluster-graph view with no materialized graphs at
// all: only the dilation and the machine count for identifier widths, so
// round and payload accounting (ChargeHRounds, IDBits) work while every
// primitive that walks H or G is unavailable. Streaming partitioned runs —
// where the decomposition executes over shard slices and the global graph
// is never built — use this view with machines = n, the singleton-expansion
// topology, making their charges byte-identical to a materialized
// singleton-expansion run.
func NewHeadless(machines, dilation int, cost *network.CostModel) (*CG, error) {
	if cost == nil {
		return nil, fmt.Errorf("cluster: nil cost model")
	}
	if dilation < 0 {
		return nil, fmt.Errorf("cluster: negative dilation %d", dilation)
	}
	if machines < 0 {
		return nil, fmt.Errorf("cluster: negative machine count %d", machines)
	}
	return &CG{Dilation: dilation, cost: cost, machineN: machines}, nil
}

// Cost exposes the underlying cost model.
func (cg *CG) Cost() *network.CostModel { return cg.cost }

// WithCost returns a shallow copy of the cluster graph bound to a different
// cost model. Stages that run in parallel over vertex-disjoint subgraphs
// execute against per-subgraph scratch models, which the caller then merges
// with CostModel.AbsorbParallel so concurrent work charges max rounds, not
// the sum.
func (cg *CG) WithCost(cost *network.CostModel) *CG {
	out := *cg
	out.cost = cost
	return &out
}

// HopsPerRound returns the G-rounds of a single H-round: broadcast down the
// support trees, one inter-cluster link step, aggregation back up.
func (cg *CG) HopsPerRound() int { return 2*cg.Dilation + 1 }

// ChargeHRounds charges k cluster-graph rounds with the given per-link
// payload to the cost model and returns the G-rounds consumed.
func (cg *CG) ChargeHRounds(phase string, k, payloadBits int) int {
	total := 0
	for i := 0; i < k; i++ {
		total += cg.cost.Charge(phase, payloadBits, cg.HopsPerRound())
	}
	return total
}
