package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// ClusterTopology selects the internal machine topology used when expanding
// an input graph H into a communication network G (Definition 3.1).
type ClusterTopology int

const (
	// TopologySingleton puts one machine per cluster (the CONGEST special
	// case H = G).
	TopologySingleton ClusterTopology = iota + 1
	// TopologyPath connects a cluster's machines in a path, the
	// worst-dilation shape from Figure 2 (a bridge link in the middle).
	TopologyPath
	// TopologyStar connects a cluster's machines in a star (dilation 2).
	TopologyStar
	// TopologyTree connects a cluster's machines in a random tree.
	TopologyTree
)

func (t ClusterTopology) String() string {
	switch t {
	case TopologySingleton:
		return "singleton"
	case TopologyPath:
		return "path"
	case TopologyStar:
		return "star"
	case TopologyTree:
		return "tree"
	default:
		return fmt.Sprintf("ClusterTopology(%d)", int(t))
	}
}

// ExpandSpec controls how an input graph H is turned into a communication
// network G with a cluster per H-vertex.
type ExpandSpec struct {
	// Topology is the internal wiring of each cluster.
	Topology ClusterTopology
	// MachinesPerCluster is the cluster size (>= 1). Ignored for
	// TopologySingleton.
	MachinesPerCluster int
	// RedundantLinks, when >= 1, is the number of parallel G-links created
	// per H-edge (between distinct machine pairs when possible). Values
	// above 1 exercise the double-counting hazards of Section 1.1. It is
	// capped at MachinesPerCluster², the number of distinct machine pairs
	// between two clusters.
	RedundantLinks int
}

// Expansion is the result of expanding H into a communication network.
type Expansion struct {
	// G is the communication network. With one machine per cluster it is h
	// itself: graphs are immutable, so the CONGEST case shares H's CSR.
	G *Graph
	// ClusterOf maps each machine of G to its H-vertex.
	ClusterOf []int
	// Machines maps each H-vertex to its machines in G.
	Machines [][]int32
}

// Expand builds a communication network realizing h as a cluster graph
// (Definition 3.1): each h-vertex becomes a connected cluster of machines
// and each h-edge becomes at least one inter-cluster link.
//
// When every cluster has one machine (TopologySingleton, or any topology
// with MachinesPerCluster 1) the network is h itself: Expansion.G is h, the
// machine of vertex v is v, and nothing is drawn from rng.
func Expand(h *Graph, spec ExpandSpec, rng *rand.Rand) (*Expansion, error) {
	size := spec.MachinesPerCluster
	if spec.Topology == TopologySingleton {
		size = 1
	}
	if size < 1 {
		return nil, fmt.Errorf("graph: MachinesPerCluster %d < 1", size)
	}
	if h.N() > 0 && (spec.Topology < TopologySingleton || spec.Topology > TopologyTree) {
		return nil, fmt.Errorf("graph: unknown topology %v", spec.Topology)
	}
	if size == 1 {
		return oneMachineExpansion(h), nil
	}
	// Machine ids are int32 in the network's CSR, so a network past
	// MaxInt32 machines is refused before any table is sized (the division
	// keeps the check itself from overflowing).
	if h.N() > 0 && size > math.MaxInt32/h.N() {
		return nil, fmt.Errorf("graph: %d clusters of %d machines exceed the int32 machine id range", h.N(), size)
	}
	// Two clusters have only size² machine pairs, so more links per H-edge
	// than that cannot be distinct. The division keeps the bound from
	// overflowing on absurd sizes.
	redundant := max(spec.RedundantLinks, 1)
	if redundant/size >= size {
		redundant = size * size
	}
	nG := h.N() * size
	b := NewBuilder(nG)
	clusterOf := make([]int, nG)
	machines := make([][]int32, h.N())
	// One flat backing array for every cluster's machine list — per-vertex
	// slice allocations would dominate instance construction at scale.
	flat := make([]int32, nG)
	for v := 0; v < h.N(); v++ {
		base := v * size
		ms := flat[base : base+size : base+size]
		for i := 0; i < size; i++ {
			clusterOf[base+i] = v
			ms[i] = int32(base + i)
		}
		machines[v] = ms
		if err := wireCluster(b, base, size, spec.Topology, rng); err != nil {
			return nil, err
		}
	}
	// Inter-cluster links: each H-edge gets `redundant` links between
	// random machine pairs. Links between clusters v and w can only arise
	// from the H-edge {v,w}, so deduplication is local to this loop body —
	// a scan of the few pairs already drawn for the same H-edge.
	drawn := make([][2]int32, 0, redundant)
	for v := 0; v < h.N(); v++ {
		for _, w := range h.Neighbors(v) {
			if int(w) < v {
				continue
			}
			// The first attempt always succeeds (drawn is empty, so no dup),
			// so every H-edge gets at least one link.
			drawn = drawn[:0]
			for attempt := 0; attempt < redundant*4 && len(drawn) < redundant; attempt++ {
				mu := int(machines[v][rng.IntN(size)])
				mw := int(machines[w][rng.IntN(size)])
				pair := [2]int32{int32(mu), int32(mw)}
				dup := false
				for _, d := range drawn {
					if d == pair {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				drawn = append(drawn, pair)
				if err := b.AddEdge(mu, mw); err != nil {
					return nil, err
				}
			}
		}
	}
	return &Expansion{G: b.Build(), ClusterOf: clusterOf, Machines: machines}, nil
}

// oneMachineExpansion is the CONGEST case H = G: machine v is H-vertex v,
// and each H-edge {v,w} is the single link {v,w}, so the network is h.
// Sharing h instead of building an identical CSR leaves O(n) work for the
// identity maps.
func oneMachineExpansion(h *Graph) *Expansion {
	n := h.N()
	clusterOf := make([]int, n)
	flat := make([]int32, n)
	machines := make([][]int32, n)
	for v := range clusterOf {
		clusterOf[v] = v
		flat[v] = int32(v)
		machines[v] = flat[v : v+1 : v+1]
	}
	return &Expansion{G: h, ClusterOf: clusterOf, Machines: machines}
}

// wireCluster links the machines base..base+size-1 of one multi-machine
// cluster; Expand has already rejected unknown topologies.
func wireCluster(b *Builder, base, size int, topo ClusterTopology, rng *rand.Rand) error {
	for i := 1; i < size; i++ {
		var parent int
		switch topo {
		case TopologyPath:
			parent = base + i - 1
		case TopologyStar:
			parent = base
		default: // TopologyTree
			parent = base + rng.IntN(i)
		}
		if err := b.AddEdge(parent, base+i); err != nil {
			return err
		}
	}
	return nil
}
