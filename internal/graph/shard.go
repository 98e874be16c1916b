package graph

import (
	"fmt"
	"slices"
	"sort"

	"clustercolor/internal/parwork"
)

// ShardSlice is one shard of a partitioned graph: a contiguous range of
// owned global vertices [Lo, Hi) renumbered into a local CSR, plus the halo
// — the out-of-shard neighbors of owned vertices — appended after the owned
// range. The local CSR holds every owned↔owned and owned↔halo edge (never
// halo↔halo: a shard knows its boundary, not other shards' interiors), so
// per-edge state of a partitioned pass is keyed by local directed slots.
//
// Local ids order owned vertices ascending by global id (local = global −
// Lo) followed by halo vertices ascending by global id, so a local neighbor
// row is the owned sub-row followed by the halo sub-row, each in global
// order.
type ShardSlice struct {
	// Shard is this slice's index in the partition.
	Shard int
	// Lo, Hi delimit the owned global vertex range [Lo, Hi).
	Lo, Hi int
	// CSR is the local graph over Own()+len(Halo) vertices.
	CSR *Graph
	// Halo lists the out-of-shard neighbor vertices by global id, sorted
	// ascending; halo vertex i has local id Own()+i.
	Halo []int32
	// HaloOwner[i] is the shard owning Halo[i].
	HaloOwner []int32
	// Boundary lists the owned local ids with at least one halo neighbor —
	// the rows a boundary-exchange phase must ship — ascending.
	Boundary []int32
	// BoundaryEdges counts the directed owned→halo edges.
	BoundaryEdges int
}

// Own returns the number of owned vertices.
func (s *ShardSlice) Own() int { return s.Hi - s.Lo }

// ToGlobal maps a local id (owned or halo) to its global vertex id.
func (s *ShardSlice) ToGlobal(local int) int {
	if own := s.Own(); local >= own {
		return int(s.Halo[local-own])
	}
	return s.Lo + local
}

// LocalOf maps a global vertex to its local id; ok is false when the vertex
// is neither owned nor in the halo.
func (s *ShardSlice) LocalOf(global int) (int, bool) {
	if global >= s.Lo && global < s.Hi {
		return global - s.Lo, true
	}
	i := sort.Search(len(s.Halo), func(i int) bool { return int(s.Halo[i]) >= global })
	if i < len(s.Halo) && int(s.Halo[i]) == global {
		return s.Own() + i, true
	}
	return 0, false
}

// ShardedGraph is the partitioned view of a graph: k contiguous shard
// slices whose owned ranges cover [0, n). Global dimensions (N, M,
// MaxDegree) are recorded at construction, so consumers never need a global
// graph for sizing.
type ShardedGraph struct {
	// G is the graph a materialized partition (NewShardedGraph) was cut
	// from — kept only so consumers can check they were handed the
	// partition of the graph they expect — and nil for streaming
	// construction (NewShardedGraphFromEdges).
	G      *Graph
	Starts []int32 // len k+1; shard s owns [Starts[s], Starts[s+1])
	Slices []*ShardSlice

	n, m, maxDeg int
}

// NumShards returns the shard count.
func (sg *ShardedGraph) NumShards() int { return len(sg.Slices) }

// N returns the global vertex count, available with or without the global
// graph.
func (sg *ShardedGraph) N() int { return sg.n }

// M returns the global undirected edge count, available with or without the
// global graph.
func (sg *ShardedGraph) M() int { return sg.m }

// MaxDegree returns the global maximum degree. Owned local rows hold every
// global neighbor, so the maximum owned local degree over all slices equals
// the global maximum and streaming construction records it without ever
// holding the global CSR.
func (sg *ShardedGraph) MaxDegree() int { return sg.maxDeg }

// Owner returns the shard owning global vertex v.
func (sg *ShardedGraph) Owner(v int) int {
	return sort.Search(len(sg.Starts)-1, func(s int) bool { return int(sg.Starts[s+1]) > v })
}

// NewShardedGraph partitions g into k contiguous near-even vertex ranges
// (shard s owns [s·n/k, (s+1)·n/k), so k need not divide n and k > n leaves
// trailing shards empty) and builds the per-shard slices in parallel. A
// slice owning every vertex has no halo, so its local CSR is g itself: the
// one-slice partition costs no copy.
func NewShardedGraph(g *Graph, k int) (*ShardedGraph, error) {
	starts, err := EvenStarts(g.N(), k)
	if err != nil {
		return nil, err
	}
	return ShardedGraphFromStarts(g, starts)
}

// ShardedGraphFromStarts builds the sharded view for an explicit partition:
// starts must be non-decreasing with starts[0] = 0 and starts[k] = n. Slices
// construct independently, so the work fans across the worker pool.
func ShardedGraphFromStarts(g *Graph, starts []int32) (*ShardedGraph, error) {
	k := len(starts) - 1
	if err := validStarts(g.N(), starts); err != nil {
		return nil, err
	}
	sg := &ShardedGraph{G: g, Starts: starts, n: g.N(), m: g.M(), maxDeg: g.MaxDegree()}
	slices, err := parwork.ForEach(k, func(s int) (*ShardSlice, error) {
		return buildSlice(g, sg, s, int(starts[s]), int(starts[s+1]))
	})
	if err != nil {
		return nil, err
	}
	sg.Slices = slices
	return sg, nil
}

// buildSlice constructs one shard slice: gather and sort the halo, then
// build the local CSR over owned-then-halo ids.
func buildSlice(g *Graph, sg *ShardedGraph, shard, lo, hi int) (*ShardSlice, error) {
	sl := &ShardSlice{Shard: shard, Lo: lo, Hi: hi}
	if lo == 0 && hi == g.N() {
		// Local ids equal global ids and there is no halo.
		sl.CSR = g
		return sl, nil
	}
	own := hi - lo
	// Halo: distinct out-of-range neighbors, ascending.
	var halo []int32
	for v := lo; v < hi; v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) < lo || int(u) >= hi {
				halo = append(halo, u)
				sl.BoundaryEdges++
			}
		}
	}
	slices.Sort(halo)
	halo = slices.Compact(halo)
	sl.Halo = halo
	sl.HaloOwner = make([]int32, len(halo))
	for i, u := range halo {
		sl.HaloOwner[i] = int32(sg.Owner(int(u)))
	}
	// Local CSR: owned local ids [0, own), halo local ids [own, own+h). Each
	// owned↔owned edge is added once and each boundary edge once.
	b := NewBuilder(own + len(halo))
	inner := int64(g.AdjOffset(hi)-g.AdjOffset(lo)) - int64(sl.BoundaryEdges)
	b.reserve(inner/2 + int64(sl.BoundaryEdges))
	for v := lo; v < hi; v++ {
		lv := v - lo
		isBoundary := false
		for _, u32 := range g.Neighbors(v) {
			u := int(u32)
			if u >= lo && u < hi {
				if u > v { // owned↔owned edges once
					if err := b.AddEdge(lv, u-lo); err != nil {
						return nil, err
					}
				}
				continue
			}
			hIdx := sort.Search(len(halo), func(i int) bool { return int(halo[i]) >= u })
			if err := b.AddEdge(lv, own+hIdx); err != nil {
				return nil, err
			}
			isBoundary = true
		}
		if isBoundary {
			sl.Boundary = append(sl.Boundary, int32(lv))
		}
	}
	sl.CSR = b.Build()
	return sl, nil
}

// EvenStarts returns the near-even contiguous partition of [0, n) into k
// shards: shard s owns [s·n/k, (s+1)·n/k), so k need not divide n and k > n
// leaves trailing shards empty.
func EvenStarts(n, k int) ([]int32, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: shard count %d < 1", k)
	}
	starts := make([]int32, k+1)
	for s := 0; s <= k; s++ {
		starts[s] = int32(s * n / k)
	}
	return starts, nil
}

// validStarts checks a partition: non-decreasing starts covering [0, n).
func validStarts(n int, starts []int32) error {
	k := len(starts) - 1
	if k < 1 {
		return fmt.Errorf("graph: partition needs at least one shard")
	}
	if starts[0] != 0 || int(starts[k]) != n {
		return fmt.Errorf("graph: partition bounds [%d, %d) do not cover [0, %d)", starts[0], starts[k], n)
	}
	for s := 0; s < k; s++ {
		if starts[s] > starts[s+1] {
			return fmt.Errorf("graph: partition starts decrease at shard %d", s)
		}
	}
	return nil
}
