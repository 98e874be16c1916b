package cluster

import "fmt"

// The operations in this file execute at machine granularity: values travel
// along actual support-tree links level by level. They back the vertex-level
// primitives with a checkable machine-level semantics and are exercised
// directly by the CONGEST example and the tests.

// BroadcastFromLeader floods one value from each cluster's leader down its
// support tree and returns the value received per machine. Cost: Dilation
// H-hops with payloadBits per tree link.
func (cg *CG) BroadcastFromLeader(phase string, payloadBits int, leaderValue func(v int) uint64) ([]uint64, error) {
	got := make([]uint64, cg.G.N())
	have := make([]bool, cg.G.N())
	for v := 0; v < cg.H.N(); v++ {
		l := cg.Leader[v]
		got[l] = leaderValue(v)
		have[l] = true
	}
	// Level-by-level flood: a machine at depth k hears in hop k.
	for hop := 1; hop <= cg.Dilation; hop++ {
		for m := 0; m < cg.G.N(); m++ {
			if int(cg.TreeDepth[m]) != hop {
				continue
			}
			p := cg.TreeParent[m]
			if p < 0 || !have[p] {
				return nil, fmt.Errorf("cluster: machine %d at depth %d has no informed parent", m, hop)
			}
			got[m] = got[p]
			have[m] = true
		}
	}
	for m := 0; m < cg.G.N(); m++ {
		if !have[m] {
			return nil, fmt.Errorf("cluster: machine %d never informed", m)
		}
	}
	hops := cg.Dilation
	if hops < 1 {
		hops = 1
	}
	cg.cost.Charge(phase, payloadBits, hops)
	return got, nil
}

// AggregateToLeader folds one value per machine up the support trees with a
// commutative, associative combine, returning the aggregate at each cluster's
// leader. Per-link traffic stays at payloadBits because combine merges
// values (aggregation, not concatenation). Cost: Dilation hops.
func (cg *CG) AggregateToLeader(phase string, payloadBits int,
	machineValue func(m int) uint64,
	combine func(a, b uint64) uint64,
) ([]uint64, error) {
	acc := make([]uint64, cg.G.N())
	for m := 0; m < cg.G.N(); m++ {
		acc[m] = machineValue(m)
	}
	// Deepest levels first: each machine pushes its accumulated value to
	// its parent.
	for hop := cg.Dilation; hop >= 1; hop-- {
		for m := 0; m < cg.G.N(); m++ {
			if int(cg.TreeDepth[m]) != hop {
				continue
			}
			p := cg.TreeParent[m]
			if p < 0 {
				return nil, fmt.Errorf("cluster: machine %d at depth %d has no parent", m, hop)
			}
			acc[p] = combine(acc[p], acc[m])
		}
	}
	out := make([]uint64, cg.H.N())
	for v := 0; v < cg.H.N(); v++ {
		out[v] = acc[cg.Leader[v]]
	}
	hops := cg.Dilation
	if hops < 1 {
		hops = 1
	}
	cg.cost.Charge(phase, payloadBits, hops)
	return out, nil
}

// LeaderRound is the paper's canonical H-round at machine level: broadcast a
// leader value down the trees, let boundary machines exchange with adjacent
// clusters over inter-cluster links, and aggregate the echoes back to the
// leaders. The exchange applies combine over the neighbor-cluster values
// heard on incident inter-cluster links (double hearing the same neighbor is
// harmless exactly when combine is idempotent — the aggregation-safety
// condition of Section 1.1).
func (cg *CG) LeaderRound(phase string, payloadBits int,
	leaderValue func(v int) uint64,
	identity uint64,
	combine func(a, b uint64) uint64,
) ([]uint64, error) {
	down, err := cg.BroadcastFromLeader(phase+"/bcast", payloadBits, leaderValue)
	if err != nil {
		return nil, err
	}
	// Inter-cluster exchange: each machine hears the values of adjacent
	// machines in other clusters. One G-round.
	heard := make([]uint64, cg.G.N())
	for m := range heard {
		heard[m] = identity
	}
	for m := 0; m < cg.G.N(); m++ {
		for _, nb := range cg.G.Neighbors(m) {
			if cg.ClusterOf[nb] != cg.ClusterOf[m] {
				heard[m] = combine(heard[m], down[nb])
			}
		}
	}
	cg.cost.Charge(phase+"/exchange", payloadBits, 1)
	return cg.AggregateToLeader(phase+"/aggregate", payloadBits,
		func(m int) uint64 { return heard[m] }, combine)
}
