// Package clustercolor is a library for (Δ+1)-coloring cluster graphs,
// reproducing "Decentralized Distributed Graph Coloring: Cluster Graphs"
// (Flin, Halldórsson, Nolin — PODC 2025, arXiv:2405.07725).
//
// A cluster graph H is a graph whose vertices are disjoint connected
// clusters of machines in an underlying communication network G with
// O(log n)-bit links. The library simulates that model faithfully — every
// algorithmic step charges rounds and bandwidth to a cost model — and runs
// the paper's full pipeline: fingerprint-based almost-clique decomposition,
// slack generation, synchronized color trials, colorful matchings (with the
// cabal fingerprint matching of Section 6), put-aside sets with the 3-way
// donation scheme of Section 7, and the low-degree shattering pipeline of
// Section 9.
//
// Quickstart:
//
//	h, err := clustercolor.GNP(1000, 0.05, 42)
//	if err != nil { ... }
//	res, err := clustercolor.Color(h, clustercolor.Options{Seed: 1})
//	if err != nil { ... }
//	fmt.Println(res.Rounds(), res.NumColors())
package clustercolor

import (
	"fmt"
	"math/bits"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/core"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
)

// Graph is an input graph to color. Construct with NewGraphBuilder or one of
// the generators (GNP, Clique, PlantedACD, ...).
type Graph = graph.Graph

// GraphBuilder builds input graphs edge by edge.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// GNP samples an Erdős–Rényi graph G(n, p) with a deterministic seed, in
// O(n + m) expected time. It returns an error for p outside [0,1] (NaN
// included) instead of silently producing a degenerate graph.
func GNP(n int, p float64, seed uint64) (*Graph, error) {
	return graph.GNP(n, p, graph.NewRand(seed))
}

// Clique returns the complete graph K_n. It returns an error for n < 0 and
// for n past the graph substrate's ~2³⁰-edge capacity (n(n-1)/2 edges, so
// n > ~46000).
func Clique(n int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("clustercolor: Clique(%d): negative vertex count", n)
	}
	if !graph.CliqueFits(n) {
		return nil, fmt.Errorf("clustercolor: Clique(%d) exceeds the graph substrate's edge capacity", n)
	}
	return graph.Clique(n), nil
}

// RandomGeometric samples a wireless-style random geometric graph: n points
// in the unit square, edges within the given radius (grid-bucketed,
// O(n + m) expected time). Invalid radii (negative, NaN, Inf) are an error.
func RandomGeometric(n int, radius float64, seed uint64) (*Graph, error) {
	g, _, err := graph.RandomGeometric(n, radius, graph.NewRand(seed))
	return g, err
}

// BarabasiAlbert grows a preferential-attachment power-law graph: each new
// vertex attaches to `attach` distinct existing vertices chosen
// proportionally to degree — the hub-and-spoke scenario complementing GNP's
// concentrated degrees.
func BarabasiAlbert(n, attach int, seed uint64) (*Graph, error) {
	return graph.BarabasiAlbert(n, attach, graph.NewRand(seed))
}

// RandomRegular samples a uniform-ish d-regular graph on n vertices via the
// pairing model. n·d must be even and d < n.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	return graph.RandomRegular(n, d, graph.NewRand(seed))
}

// RingOfCliques returns numCliques cliques of cliqueSize vertices joined in
// a ring by single bridge edges: maximal local density with minimal
// expansion.
func RingOfCliques(numCliques, cliqueSize int) (*Graph, error) {
	return graph.RingOfCliques(numCliques, cliqueSize)
}

// PlantedACDSpec parameterizes PlantedACD.
type PlantedACDSpec = graph.PlantedACDSpec

// PlantedACD samples an instance with planted almost-cliques: dense blocks
// with a fraction of internal edges dropped and a few external edges per
// member, plus a sparse G(n, p) background — the ground-truth scenario for
// decomposition experiments. It returns the graph and the planted block id
// per vertex (-1 for background vertices).
func PlantedACD(spec PlantedACDSpec, seed uint64) (*Graph, []int, error) {
	return graph.PlantedACD(spec, graph.NewRand(seed))
}

// Power returns the k-th power of g (distance-k conflict graph); k must be
// >= 1.
func Power(g *Graph, k int) (*Graph, error) { return g.Power(k) }

// Topology selects how each input vertex expands into a cluster of machines
// in the communication network.
type Topology int

const (
	// Singleton puts one machine per cluster: the CONGEST case H = G.
	Singleton Topology = iota + 1
	// PathCluster wires each cluster as a path (worst dilation).
	PathCluster
	// StarCluster wires each cluster as a star (dilation 2).
	StarCluster
	// TreeCluster wires each cluster as a random tree.
	TreeCluster
)

func (t Topology) expandTopology() graph.ClusterTopology {
	switch t {
	case PathCluster:
		return graph.TopologyPath
	case StarCluster:
		return graph.TopologyStar
	case TreeCluster:
		return graph.TopologyTree
	default:
		return graph.TopologySingleton
	}
}

// Options configures a coloring run.
type Options struct {
	// Topology is the cluster wiring (default Singleton).
	Topology Topology
	// MachinesPerCluster sizes each cluster (default 1; ignored for
	// Singleton).
	MachinesPerCluster int
	// RedundantLinks is the number of parallel network links per input
	// edge (default 1), capped at MachinesPerCluster², the distinct
	// machine pairs between two clusters. Higher values exercise the
	// double-counting hazards the paper's aggregation primitives are
	// designed for.
	RedundantLinks int
	// BandwidthBits is the per-link per-round budget (default
	// 2·⌈log₂ n⌉ + 16, the model's Θ(log n)).
	BandwidthBits int
	// Params tunes the algorithm; the zero value selects DefaultParams
	// (a zero Params is never valid on its own, so this is unambiguous —
	// see core.Params.IsZero).
	Params core.Params
	// Shards is the number of contiguous vertex slices the decomposition
	// stage partitions the graph into, with explicit boundary exchanges
	// between sketch waves. 0 or 1 runs one slice that shares the graph's
	// memory and exchanges nothing. The coloring and charged rounds are
	// byte-identical at every count. Overrides Params.Shards when positive.
	Shards int
	// Seed drives all randomness (expansion and algorithm). It always
	// takes effect — 0 is a valid explicit seed, not "unset" — and
	// overrides Params.Seed.
	Seed uint64
}

// resolveParams returns opts.Params with the zero value replaced by
// DefaultParams(n), and opts.Seed applied unconditionally.
func resolveParams(opts Options, n int) core.Params {
	params := opts.Params
	if params.IsZero() {
		params = core.DefaultParams(n)
	}
	params.Seed = opts.Seed
	if opts.Shards > 0 {
		params.Shards = opts.Shards
	}
	return params
}

// Result is a completed coloring run.
type Result struct {
	colors []int32
	stats  *core.Stats
	cost   *network.CostModel
}

// ColorOf returns the color of vertex v in [1, Δ+1].
func (r *Result) ColorOf(v int) int { return int(r.colors[v]) }

// Colors returns a copy of the full assignment (1-based colors).
func (r *Result) Colors() []int {
	out := make([]int, len(r.colors))
	for i, c := range r.colors {
		out[i] = int(c)
	}
	return out
}

// NumColors returns the number of distinct colors used.
func (r *Result) NumColors() int {
	seen := make(map[int32]struct{})
	for _, c := range r.colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// Rounds returns the total simulated communication rounds on the network.
func (r *Result) Rounds() int64 { return r.stats.Rounds }

// Stats exposes the detailed run statistics.
func (r *Result) Stats() *core.Stats { return r.stats }

// CostSummary renders the per-phase round breakdown.
func (r *Result) CostSummary() string { return r.cost.Summary() }

// DefaultBandwidth returns the Θ(log n) default link budget for n machines.
func DefaultBandwidth(n int) int {
	if n < 2 {
		n = 2
	}
	return 2*bits.Len(uint(n)) + 16
}

// Color computes a (Δ+1)-coloring of h under the given options and verifies
// it before returning.
func Color(h *Graph, opts Options) (*Result, error) {
	cg, cost, err := buildClusterGraph(h, opts)
	if err != nil {
		return nil, err
	}
	params := resolveParams(opts, h.N())
	col, stats, err := core.Color(cg, params)
	if err != nil {
		return nil, err
	}
	colors := make([]int32, h.N())
	for v := 0; v < h.N(); v++ {
		colors[v] = col.Get(v)
	}
	return &Result{colors: colors, stats: stats, cost: cost}, nil
}

// Verify checks that an assignment (1-based colors, as returned by
// Result.Colors) is a proper total coloring of h with at most Δ+1 colors.
func Verify(h *Graph, colors []int) error {
	if len(colors) != h.N() {
		return fmt.Errorf("clustercolor: %d colors for %d vertices", len(colors), h.N())
	}
	maxColor := h.MaxDegree() + 1
	col := coloring.New(h.N(), h.MaxDegree())
	for v, c := range colors {
		// Range-check the int before narrowing: int32(c) wraps, so a color
		// like 5 + 1<<32 would otherwise reach Set as 5.
		if c < 1 || c > maxColor {
			return fmt.Errorf("clustercolor: vertex %d: color %d out of [1,%d]", v, c, maxColor)
		}
		if err := col.Set(v, int32(c)); err != nil {
			return fmt.Errorf("clustercolor: vertex %d: %w", v, err)
		}
	}
	return coloring.VerifyComplete(h, col)
}

func buildClusterGraph(h *Graph, opts Options) (*cluster.CG, *network.CostModel, error) {
	spec := graph.ExpandSpec{
		Topology:           opts.Topology.expandTopology(),
		MachinesPerCluster: opts.MachinesPerCluster,
		RedundantLinks:     opts.RedundantLinks,
	}
	if spec.MachinesPerCluster == 0 {
		spec.MachinesPerCluster = 1
	}
	exp, err := graph.Expand(h, spec, graph.NewRand(opts.Seed^0xa5a5a5a5))
	if err != nil {
		return nil, nil, err
	}
	bw := opts.BandwidthBits
	if bw == 0 {
		bw = DefaultBandwidth(exp.G.N())
	}
	cost, err := network.NewCostModel(bw)
	if err != nil {
		return nil, nil, err
	}
	cg, err := cluster.New(h, exp, cost)
	if err != nil {
		return nil, nil, err
	}
	return cg, cost, nil
}
