package graph

import (
	"fmt"
	"slices"
	"sort"

	"clustercolor/internal/parwork"
)

// EdgeStream produces the undirected edges of a graph by calling emit(u, v)
// once per edge occurrence (duplicates and either endpoint order are fine —
// construction dedupes exactly like Builder). Streams must be re-runnable:
// invoking the stream again replays the identical edge sequence, which is
// what lets a multi-process deployment build one slice per pass without any
// shard ever holding the global edge set.
type EdgeStream func(emit func(u, v int) error) error

// StreamOf adapts a materialized graph into an EdgeStream replaying its
// edges (each undirected edge once, in CSR row order). It exists mostly for
// the conformance harness: any scenario graph becomes a stream, and
// streaming construction from it must be byte-identical to the materialized
// partition.
func StreamOf(g *Graph) EdgeStream {
	return func(emit func(u, v int) error) error {
		for v := 0; v < g.N(); v++ {
			for _, u := range g.Neighbors(v) {
				if int(u) > v {
					if err := emit(v, int(u)); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
}

// ShardedBuilder accumulates a partitioned graph directly from edges: every
// edge is routed to the buffer of each endpoint's owner shard (cross-shard
// edges land in both), and Build turns each buffer into a ShardSlice — local
// CSR, halo, boundary — without ever materializing the global CSR. The
// global Graph pointer of the result is nil. The maxBuilderEdges cap applies
// per shard, not globally, so instances past the global builder cap are
// constructible once partitioned finely enough.
type ShardedBuilder struct {
	n      int
	starts []int32
	edges  [][]uint64 // per shard: packed lo<<32 | hi, lo < hi
	peak   int        // largest single-shard buffer seen (edge count)
	built  bool
}

// NewShardedBuilder returns a builder for a partitioned graph on n vertices
// with the explicit partition starts (validated like
// ShardedGraphFromStarts).
func NewShardedBuilder(n int, starts []int32) (*ShardedBuilder, error) {
	if n < 0 {
		n = 0
	}
	if err := validStarts(n, starts); err != nil {
		return nil, err
	}
	return &ShardedBuilder{n: n, starts: starts, edges: make([][]uint64, len(starts)-1)}, nil
}

// owner returns the shard owning global vertex v under the builder's starts.
func (sb *ShardedBuilder) owner(v int) int {
	return sort.Search(len(sb.starts)-1, func(s int) bool { return int(sb.starts[s+1]) > v })
}

// AddEdge buffers the undirected edge {u, v} with Builder's validation
// (range, self-loops; duplicates merged at Build). The edge is routed to
// both endpoint owners' buffers; each buffer is capped at maxBuilderEdges.
// On a built ShardedBuilder it returns an error.
func (sb *ShardedBuilder) AddEdge(u, v int) error {
	if sb.built {
		return fmt.Errorf("graph: ShardedBuilder used after Build")
	}
	if u < 0 || u >= sb.n || v < 0 || v >= sb.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, sb.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u > v {
		u, v = v, u
	}
	e := uint64(u)<<32 | uint64(v)
	su, sv := sb.owner(u), sb.owner(v)
	if err := sb.push(su, e); err != nil {
		return err
	}
	if sv != su {
		return sb.push(sv, e)
	}
	return nil
}

func (sb *ShardedBuilder) push(s int, e uint64) error {
	if len(sb.edges[s]) >= maxBuilderEdges {
		return fmt.Errorf("graph: shard %d edge count exceeds %d", s, maxBuilderEdges)
	}
	sb.edges[s] = append(sb.edges[s], e)
	if len(sb.edges[s]) > sb.peak {
		sb.peak = len(sb.edges[s])
	}
	return nil
}

// PeakBufferedEdges returns the largest per-shard edge buffer the builder
// held — the streaming-construction memory high-water mark a bench row
// reports (a multi-process deployment holds exactly one such buffer).
func (sb *ShardedBuilder) PeakBufferedEdges() int { return sb.peak }

// Build finalizes every slice in parallel and returns the ShardedGraph, with
// no global graph. The builder must not be used afterwards: a second Build
// returns an error.
func (sb *ShardedBuilder) Build() (*ShardedGraph, error) {
	if sb.built {
		return nil, fmt.Errorf("graph: ShardedBuilder used after Build")
	}
	sb.built = true
	k := len(sb.starts) - 1
	sg := &ShardedGraph{Starts: sb.starts, n: sb.n}
	slices, err := parwork.ForEach(k, func(s int) (*ShardSlice, error) {
		sl := sliceFromEdges(sb.starts, s, sb.edges[s])
		sb.edges[s] = nil // construction is the peak; free eagerly
		return sl, nil
	})
	if err != nil {
		return nil, err
	}
	sg.Slices = slices
	// Owned local degrees equal global degrees, so global dimensions fall
	// out of the slices: every directed edge has exactly one owner.
	ownedSlots := 0
	for _, sl := range slices {
		ownedSlots += sl.CSR.AdjOffset(sl.Own())
		for lv := 0; lv < sl.Own(); lv++ {
			if d := len(sl.CSR.Neighbors(lv)); d > sg.maxDeg {
				sg.maxDeg = d
			}
		}
	}
	sg.m = ownedSlots / 2
	return sg, nil
}

// sliceFromEdges builds one ShardSlice from the edges touching it,
// duplicates included: the same halo/local-CSR layout buildSlice derives
// from the global CSR, so the two constructions are byte-identical. The
// local Builder is the only dedupe.
func sliceFromEdges(starts []int32, shard int, edges []uint64) *ShardSlice {
	lo, hi := int(starts[shard]), int(starts[shard+1])
	sl := &ShardSlice{Shard: shard, Lo: lo, Hi: hi}
	own := hi - lo
	// Halo: distinct out-of-range endpoints, ascending. Every buffered edge
	// touches the shard, so at most one endpoint is out of range.
	var halo []int32
	for _, e := range edges {
		a, b := int(e>>32), int(uint32(e))
		if a < lo || a >= hi {
			halo = append(halo, int32(a))
		} else if b < lo || b >= hi {
			halo = append(halo, int32(b))
		}
	}
	slices.Sort(halo)
	halo = slices.Compact(halo)
	sl.Halo = halo
	sl.HaloOwner = make([]int32, len(halo))
	for i, u := range halo {
		sl.HaloOwner[i] = int32(ownerOf(starts, int(u)))
	}
	// Local CSR over owned-then-halo ids; Build sorts the rows and merges
	// duplicates, matching the materialized slice.
	bld := NewBuilder(own + len(halo))
	local := func(g int) int {
		if g >= lo && g < hi {
			return g - lo
		}
		return own + sort.Search(len(halo), func(i int) bool { return int(halo[i]) >= g })
	}
	for _, e := range edges {
		// Endpoints were validated at AddEdge; local ids are in range by
		// construction, so this cannot fail.
		if err := bld.AddEdge(local(int(e>>32)), local(int(uint32(e)))); err != nil {
			panic("graph: sliceFromEdges: " + err.Error())
		}
	}
	sl.CSR = bld.Build()
	// Boundary: owned rows with halo neighbors. Halo ids follow every owned
	// id, so they end each sorted row; each is one directed owned→halo edge.
	for lv := 0; lv < own; lv++ {
		row := sl.CSR.Neighbors(lv)
		first, _ := slices.BinarySearch(row, int32(own))
		if cross := len(row) - first; cross > 0 {
			sl.Boundary = append(sl.Boundary, int32(lv))
			sl.BoundaryEdges += cross
		}
	}
	return sl
}

// ownerOf returns the shard owning global vertex v under starts.
func ownerOf(starts []int32, v int) int {
	return sort.Search(len(starts)-1, func(s int) bool { return int(starts[s+1]) > v })
}

// NewShardedGraphFromEdges builds a sharded graph on n vertices from an edge
// stream, partitioned into k near-even contiguous shards (the
// NewShardedGraph partition). One pass over the stream routes every edge to
// its owner slices; no global CSR is ever materialized.
func NewShardedGraphFromEdges(n, k int, stream EdgeStream) (*ShardedGraph, error) {
	starts, err := EvenStarts(n, k)
	if err != nil {
		return nil, err
	}
	return ShardedGraphFromEdgeStarts(n, starts, stream)
}

// ShardedGraphFromEdgeStarts is NewShardedGraphFromEdges for an explicit
// partition.
func ShardedGraphFromEdgeStarts(n int, starts []int32, stream EdgeStream) (*ShardedGraph, error) {
	sb, err := NewShardedBuilder(n, starts)
	if err != nil {
		return nil, err
	}
	if err := stream(sb.AddEdge); err != nil {
		return nil, err
	}
	return sb.Build()
}

// NewShardSliceFromEdges builds the single slice of one shard from a pass
// over the stream, discarding every edge that does not touch it — the
// multi-process construction shape: k processes each replay the stream
// (streams are re-runnable) and hold only their own slice plus its edge
// buffer, never the global edge set. The slice is byte-identical to the
// corresponding slice of ShardedGraphFromEdgeStarts.
func NewShardSliceFromEdges(n int, starts []int32, shard int, stream EdgeStream) (*ShardSlice, error) {
	if err := validStarts(n, starts); err != nil {
		return nil, err
	}
	if shard < 0 || shard >= len(starts)-1 {
		return nil, fmt.Errorf("graph: shard %d out of range [0,%d)", shard, len(starts)-1)
	}
	lo, hi := int(starts[shard]), int(starts[shard+1])
	var edges []uint64
	err := stream(func(u, v int) error {
		if u < 0 || u >= n || v < 0 || v >= n {
			return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
		}
		if u == v {
			return fmt.Errorf("graph: self-loop at %d", u)
		}
		if u > v {
			u, v = v, u
		}
		if (u < lo || u >= hi) && (v < lo || v >= hi) {
			return nil
		}
		if len(edges) >= maxBuilderEdges {
			return fmt.Errorf("graph: shard %d edge count exceeds %d", shard, maxBuilderEdges)
		}
		edges = append(edges, uint64(u)<<32|uint64(v))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sliceFromEdges(starts, shard, edges), nil
}
