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
func (b *Builder) Build() *Graph {
	if b.built {
		panic("graph: Builder used after Build")
	}
	b.built = true
	// Counts fit int32: maxBuilderEdges bounds 2·len(edges), duplicates
	// included.
	offsets := make([]int32, b.n+1)
	for _, e := range b.edges {
		offsets[e>>32+1]++
		offsets[uint32(e)+1]++
	}
	for v := 0; v < b.n; v++ {
		offsets[v+1] += offsets[v]
	}
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	nbrs := make([]int32, 2*len(b.edges))
	for _, e := range b.edges {
		u, v := int32(e>>32), int32(uint32(e))
		nbrs[cursor[u]] = v
		cursor[u]++
		nbrs[cursor[v]] = u
		cursor[v]++
	}
	b.edges = nil
	// Row pass: w is the compacted write position; offsets[v+1] still holds
	// row v's scattered end when row v is reached.
	w, start, maxDeg := int32(0), int32(0), 0
	for v := 0; v < b.n; v++ {
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
	if int(w) < len(nbrs) {
		exact := make([]int32, w)
		copy(exact, nbrs)
		nbrs = exact
	}
	return &Graph{offsets: offsets, nbrs: nbrs, m: int(w) / 2, maxDeg: maxDeg}
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
