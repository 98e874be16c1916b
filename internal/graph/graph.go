// Package graph provides the static undirected graph substrate used by the
// cluster-graph coloring algorithms: CSR adjacency graphs, degree and
// neighborhood queries, and the structural generators that the paper's
// evaluation needs (planted almost-clique instances, cluster expansions,
// power graphs, and classic random graphs).
//
// Vertices are identified by dense integers 0..N()-1. Graphs are built with a
// Builder and are immutable afterwards, which makes them safe for concurrent
// read access from the simulator's per-cluster goroutines.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"clustercolor/internal/parwork"
)

// Graph is an immutable simple undirected graph in compressed sparse row
// (CSR) form: one flat neighbor array indexed by per-vertex offsets, with
// each vertex's neighbor list sorted ascending. Two flat arrays instead of a
// slice-of-slices keeps million-vertex instances cache-friendly and
// allocation-light.
//
// The zero value is an empty graph with no vertices. Use NewBuilder to
// construct non-trivial graphs.
type Graph struct {
	offsets []int32 // len N()+1; vertex v's neighbors are nbrs[offsets[v]:offsets[v+1]]
	nbrs    []int32 // len 2·M(), sorted ascending within each vertex's window
	m       int
	maxDeg  int
}

// maxBuilderEdges caps the buffered edge count so that 2·M() = 2³¹−2 stays
// representable in the int32 CSR offsets (the cap is hit only by instances
// that would need >16 GB of adjacency anyway).
const maxBuilderEdges = 1<<30 - 1

// Builder accumulates edges for a Graph. Endpoints are validated at Add
// time (range, self-loops); duplicate edges are buffered freely and merged
// per row in Build, so no per-edge hash map is kept and adding an edge is a
// bounds check plus one append.
type Builder struct {
	n     int
	edges []uint64 // packed lo<<32 | hi with lo < hi
	built bool
}

// NewBuilder returns a Builder for a graph on n vertices (n < 0 is treated
// as 0).
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n}
}

// AddEdge buffers the undirected edge {u, v}. It returns an error for
// out-of-range endpoints (including ids the int32 CSR cannot hold),
// self-loops, and a Builder that has already been built. Duplicate edges are
// accepted and merged in Build, so the resulting graph is always simple.
func (b *Builder) AddEdge(u, v int) error {
	if b.built {
		return fmt.Errorf("graph: Builder used after Build")
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
	}
	if u > math.MaxInt32 || v > math.MaxInt32 {
		return fmt.Errorf("graph: edge {%d,%d} exceeds the int32 vertex id range", u, v)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if len(b.edges) >= maxBuilderEdges {
		return fmt.Errorf("graph: edge count exceeds %d", maxBuilderEdges)
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(v))
	return nil
}

// reserve makes room in the pair log for k more pairs, capped at the edge
// capacity. A generator that knows its pair count, or a close bound, calls
// it once before its first AddEdge: appended pair by pair, a large log
// regrows by ≈1.25× at a time and allocates several times its final size.
func (b *Builder) reserve(k int64) {
	if k = min(k, int64(maxBuilderEdges-len(b.edges))); k > 0 {
		b.edges = slices.Grow(b.edges, int(k))
	}
}

// addPairs appends packed pairs lo<<32 | hi, lo < hi, of the vertex window
// that starts at base. The caller guarantees that they are edges of the
// window, with ids in the int32 range; only the edge cap is checked.
func (b *Builder) addPairs(pairs []uint64, base int) error {
	if len(b.edges)+len(pairs) > maxBuilderEdges {
		return fmt.Errorf("graph: edge count exceeds %d", maxBuilderEdges)
	}
	start := len(b.edges)
	b.edges = append(b.edges, pairs...)
	if base != 0 {
		off := uint64(base)<<32 | uint64(base)
		for i := start; i < len(b.edges); i++ {
			b.edges[i] += off
		}
	}
	return nil
}

// buildGrain is the fewest buffered pairs per Build worker: a smaller
// build runs inline, where a goroutine's start-up and a second count array
// would cost more than the share of the scatter they take.
const buildGrain = 1 << 16

// Build finalizes the graph in time linear in the buffered pairs: it counts
// both endpoints of every pair, prefix-sums the counts into row offsets, and
// scatters each pair into both rows in arrival order. Pairs that arrive in
// row order — (lo, hi) or (hi, lo) ascending, as the clique and GNP
// generators emit them — fill every row smaller neighbors first, then larger
// ones, each ascending, so those rows are already sorted. One pass then
// sorts only the rows that are not, merges duplicates, and closes the gaps
// they leave, so the CSR is canonical (rows strictly ascending, arrays
// exactly sized) whatever the arrival order. Build has no error result, so a
// second Build panics; AddEdge on a built Builder returns an error.
//
// The work runs on P = min(parwork.Parallelism(), pairs/65536, pairs/(n+1))
// workers, at least one, so small builds stay inline. Each worker counts
// and scatters one contiguous chunk of the pair log through its own array
// of n int32 counts (P·n in all, beside the n+1 offsets), and worker k's
// cursor for a row starts where worker k−1's ends, so every row keeps its
// arrival order and the CSR is identical at every P.
func (b *Builder) Build() *Graph {
	pairs := len(b.edges)
	return b.build(max(1, min(parwork.Parallelism(), pairs/buildGrain, pairs/(b.n+1))))
}

// build is Build on a fixed number of workers; tests call it directly to
// reach the multi-worker path on small inputs.
func (b *Builder) build(workers int) *Graph {
	if b.built {
		panic("graph: Builder used after Build")
	}
	b.built = true
	n, edges := b.n, b.edges
	// Counts fit int32: maxBuilderEdges bounds 2·len(edges), duplicates
	// included.
	cursors := make([][]int32, workers)
	forEachPart(workers, func(k int) {
		counts := make([]int32, n)
		lo, hi := parwork.ChunkBoundsIn(len(edges), workers, k)
		for _, e := range edges[lo:hi] {
			counts[e>>32]++
			counts[uint32(e)]++
		}
		cursors[k] = counts
	})
	// Row x's scattered segment starts at offsets[x]; within it, worker k's
	// entries follow worker k−1's.
	offsets := make([]int32, n+1)
	sum := int32(0)
	for x := 0; x < n; x++ {
		offsets[x] = sum
		for _, cursor := range cursors {
			c := cursor[x]
			cursor[x] = sum
			sum += c
		}
	}
	offsets[n] = sum
	nbrs := make([]int32, 2*len(edges))
	forEachPart(workers, func(k int) {
		cursor := cursors[k]
		lo, hi := parwork.ChunkBoundsIn(len(edges), workers, k)
		for _, e := range edges[lo:hi] {
			u, v := int32(e>>32), int32(uint32(e))
			nbrs[cursor[u]] = v
			cursor[u]++
			nbrs[cursor[v]] = u
			cursor[v]++
		}
	})
	b.edges, edges, cursors = nil, nil, nil
	// Row pass over contiguous vertex ranges of near-equal scattered length.
	// Each range compacts its rows to the front of its own segment (w is the
	// write position; offsets[v+1] still holds row v's scattered end when
	// row v is reached), then one serial pass closes the gaps between
	// ranges. Range bounds and segment starts are read before any range
	// rewrites offsets.
	type rowRange struct {
		lo, hi     int
		start, end int32
		maxDeg     int
	}
	ranges := make([]rowRange, workers)
	for r := range ranges {
		lo, hi := parwork.WeightedChunkBounds(n, workers, r, func(v int) int64 { return int64(offsets[v]) + int64(v) })
		ranges[r] = rowRange{lo: lo, hi: hi, start: offsets[lo]}
	}
	forEachPart(workers, func(r int) {
		rr := &ranges[r]
		w, start, maxDeg := rr.start, rr.start, 0
		for v := rr.lo; v < rr.hi; v++ {
			row := nbrs[start:offsets[v+1]]
			if !slices.IsSorted(row) {
				slices.Sort(row)
			}
			row = slices.Compact(row)
			if w != start {
				copy(nbrs[w:], row)
			}
			start = offsets[v+1]
			w += int32(len(row))
			offsets[v+1] = w
			maxDeg = max(maxDeg, len(row))
		}
		rr.end, rr.maxDeg = w, maxDeg
	})
	w, maxDeg := int32(0), 0
	for _, rr := range ranges {
		if shift := rr.start - w; shift != 0 {
			copy(nbrs[w:], nbrs[rr.start:rr.end])
			for v := rr.lo; v < rr.hi; v++ {
				offsets[v+1] -= shift
			}
		}
		w += rr.end - rr.start
		maxDeg = max(maxDeg, rr.maxDeg)
	}
	if int(w) < len(nbrs) {
		exact := make([]int32, w)
		copy(exact, nbrs)
		nbrs = exact
	}
	return &Graph{offsets: offsets, nbrs: nbrs, m: int(w) / 2, maxDeg: maxDeg}
}

// forEachPart runs f(0), …, f(parts−1) on the worker pool, inline for one
// part.
func forEachPart(parts int, f func(k int)) {
	_, _ = parwork.ForEach(parts, func(k int) (struct{}, error) {
		f(k)
		return struct{}{}, nil
	})
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.nbrs[g.offsets[v]:g.offsets[v+1]] }

// AdjOffset returns the CSR position of v's first neighbor: the directed
// edge (v, Neighbors(v)[j]) occupies slot AdjOffset(v)+j in [0, 2·M()).
// Slot indices let callers memoize per-edge values in flat arrays without a
// map from vertex pairs.
func (g *Graph) AdjOffset(v int) int { return int(g.offsets[v]) }

// NeighborIndex returns j such that Neighbors(u)[j] == v, or -1 when {u, v}
// is not an edge — the mirror lookup for CSR slot indexing, by binary search
// on u's sorted neighbor list.
func (g *Graph) NeighborIndex(u, v int) int {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	if i < len(nb) && nb[i] == int32(v) {
		return i
	}
	return -1
}

// HasEdge reports whether {u, v} is an edge, by binary search on the sorted
// adjacency list of the lower-degree endpoint.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// MaxDegree returns Δ, the maximum degree (0 for an empty graph).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// CommonNeighbors returns |N(u) ∩ N(v)| by merging the two sorted lists.
func (g *Graph) CommonNeighbors(u, v int) int {
	a, b := g.Neighbors(u), g.Neighbors(v)
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// ConnectedComponents returns a component label per vertex and the number of
// components. Labels are dense in [0, count).
func (g *Graph) ConnectedComponents() (labels []int, count int) {
	labels = make([]int, g.N())
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for s := 0; s < g.N(); s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = count
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(int(v)) {
				if labels[w] < 0 {
					labels[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return labels, count
}

// BFSDepths runs breadth-first search from src restricted to the vertex set
// allowed (nil means all vertices) and returns the depth per vertex (-1 if
// unreachable) and the parent per vertex (-1 for src/unreachable).
func (g *Graph) BFSDepths(src int, allowed func(int) bool) (depth, parent []int) {
	depth = make([]int, g.N())
	parent = make([]int, g.N())
	for i := range depth {
		depth[i] = -1
		parent[i] = -1
	}
	if allowed != nil && !allowed(src) {
		return depth, parent
	}
	depth[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(int(v)) {
			if depth[w] >= 0 {
				continue
			}
			if allowed != nil && !allowed(int(w)) {
				continue
			}
			depth[w] = depth[v] + 1
			parent[w] = int(v)
			queue = append(queue, w)
		}
	}
	return depth, parent
}

// InducedSubgraph returns the subgraph induced by vertices (in the given
// order) together with the mapping from new index to original vertex.
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, []int) {
	index := make([]int32, g.N()) // new index of v plus one; 0 outside vertices
	for i, v := range vertices {
		index[v] = int32(i) + 1
	}
	b := NewBuilder(len(vertices))
	for i, v := range vertices {
		for _, w := range g.Neighbors(v) {
			if j := int(index[w]) - 1; i < j {
				// Insertion between in-range distinct indices cannot fail.
				_ = b.AddEdge(i, j)
			}
		}
	}
	orig := make([]int, len(vertices))
	copy(orig, vertices)
	return b.Build(), orig
}

// Power returns the k-th power of g: vertices u != v are adjacent iff their
// distance in g is at most k. For k=2 this is the distance-2 conflict graph
// used by Corollary 1.3. The exponent must be >= 1; Power(1) returns g
// itself (graphs are immutable, so sharing is safe).
//
// Each source runs a depth-bounded BFS over flat epoch-stamped arrays — no
// per-source maps — so the cost is the sum of the explored ball sizes, which
// is proportional to the output size for bounded-degree inputs.
func (g *Graph) Power(k int) (*Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: power exponent %d < 1 (distance-0 adjacency is undefined)", k)
	}
	if k == 1 {
		return g, nil
	}
	n := g.N()
	b := NewBuilder(n)
	visited := make([]int32, n) // epoch stamp: visited[v] == s+1 ⇔ seen in source s's BFS
	depth := make([]int32, n)
	var queue []int32
	for s := 0; s < n; s++ {
		epoch := int32(s) + 1
		visited[s] = epoch
		depth[s] = 0
		queue = append(queue[:0], int32(s))
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			if int(depth[v]) == k {
				continue
			}
			for _, w := range g.Neighbors(int(v)) {
				if visited[w] == epoch {
					continue
				}
				visited[w] = epoch
				depth[w] = depth[v] + 1
				queue = append(queue, w)
				if int(w) > s {
					// Endpoints are in range, but G^k can blow past the
					// edge cap even for a small input (a large star's
					// square is a giant clique) — propagate, never
					// truncate.
					if err := b.AddEdge(s, int(w)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return b.Build(), nil
}
