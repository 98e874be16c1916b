package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
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
	ClusterOf []int32
	// machines lists every cluster's machines, cluster by cluster, each
	// ascending; cluster v's are machines[start[v]:start[v+1]].
	machines, start []int32
}

// NewExpansion returns the expansion of network g whose machine m belongs to
// cluster clusterOf[m]. Every id must lie in [0, k), and ClusterOf aliases
// clusterOf. A cluster with no machine has an empty list.
func NewExpansion(g *Graph, clusterOf []int32, k int) *Expansion {
	start := make([]int32, k+1)
	for _, c := range clusterOf {
		start[c+1]++
	}
	for c := 0; c < k; c++ {
		start[c+1] += start[c]
	}
	next := slices.Clone(start[:k])
	machines := make([]int32, len(clusterOf))
	for m, c := range clusterOf {
		machines[next[c]] = int32(m)
		next[c]++
	}
	return &Expansion{G: g, ClusterOf: clusterOf, machines: machines, start: start}
}

// Clusters returns the number of clusters, one per H-vertex.
func (e *Expansion) Clusters() int { return max(len(e.start)-1, 0) }

// Machines returns cluster v's machines in G, ascending. The slice aliases
// the expansion.
func (e *Expansion) Machines(v int) []int32 { return e.machines[e.start[v]:e.start[v+1]] }

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
	// Every H-edge gets at most `redundant` links, beside size−1 tree links
	// per cluster, so the pair log is reserved once.
	b := NewBuilder(nG)
	b.reserve(int64(h.N())*int64(size-1) + int64(h.M())*int64(redundant))
	clusterOf := make([]int32, nG)
	for v := 0; v < h.N(); v++ {
		base := v * size
		for i := 0; i < size; i++ {
			clusterOf[base+i] = int32(v)
		}
		if err := wireCluster(b, base, size, spec.Topology, rng); err != nil {
			return nil, err
		}
	}
	// Inter-cluster links: each H-edge gets `redundant` links between
	// random machine pairs. Links between clusters v and w can only arise
	// from the H-edge {v,w}, so deduplication is local to this loop body —
	// a scan of the few pairs already drawn for the same H-edge. Cluster
	// v's machines are v·size … v·size+size−1.
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
				mu := v*size + rng.IntN(size)
				mw := int(w)*size + rng.IntN(size)
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
	return NewExpansion(b.Build(), clusterOf, h.N()), nil
}

// oneMachineExpansion is the CONGEST case H = G: machine v is H-vertex v,
// and each H-edge {v,w} is the single link {v,w}, so the network is h.
// Sharing h instead of building an identical CSR leaves O(n) work for the
// identity maps.
func oneMachineExpansion(h *Graph) *Expansion {
	clusterOf := make([]int32, h.N())
	for v := range clusterOf {
		clusterOf[v] = int32(v)
	}
	return NewExpansion(h, clusterOf, h.N())
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
