package distsim

import (
	"fmt"
	"slices"

	"clustercolor/internal/acd"
	"clustercolor/internal/cluster"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// StreamReport summarizes one scenario's streaming-conformance run at one
// shard count. As with ShardReport, a returned report means every compared
// surface byte-matched; divergence surfaces as an error.
type StreamReport struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Shards   int    `json:"shards"`
	Vertices int    `json:"vertices"`
	// PeakBufferedEdges is the streaming builder's high-water mark of
	// buffered packed edges — the transient footprint the streaming path
	// pays instead of a global CSR.
	PeakBufferedEdges int `json:"peak_buffered_edges"`
	// DecompRounds is the charged round count, equal on both construction
	// paths by the conformance assertion.
	DecompRounds int64 `json:"decomp_rounds"`
	// DecompExchangedRows/Bits are the shard engine's boundary-exchange
	// totals for the streamed run.
	DecompExchangedRows int64 `json:"decomp_exchanged_rows"`
	DecompExchangedBits int64 `json:"decomp_exchanged_bits"`
}

// StreamConformance is the streaming construction's differential harness:
// for one scenario it builds the sharded view twice — partitioning the
// materialized graph, and re-building each slice from an edge stream with no
// global CSR — and asserts, at the given shard count, that
//
//  1. every slice is byte-identical: bounds, local CSR rows, halo and halo
//     owners, boundary rows and boundary-edge counts (the streamed side
//     additionally must carry no global graph and no slot map);
//  2. the decomposition on the streamed engine reproduces the materialized
//     engine's decomposition bit for bit with equal charged rounds and
//     equal boundary-exchange traffic.
//
// ShardConformance already ties the materialized sharded run to the
// unsharded run, so together the two harnesses pin streamed == materialized
// == unsharded over the scenario matrix.
func StreamConformance(sc Scenario, seed uint64, shards int) (*StreamReport, error) {
	h, err := sc.Build(seed)
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: build: %w", sc.Name, err)
	}
	exp, err := graph.Expand(h, sc.Expand, graph.NewRand(seed^0xc0ffee))
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: expand: %w", sc.Name, err)
	}
	modelB := network.DefaultBandwidth(exp.G.N())
	cost, err := network.NewCostModel(modelB)
	if err != nil {
		return nil, err
	}
	cg, err := cluster.New(h, exp, cost)
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: cluster: %w", sc.Name, err)
	}
	rep := &StreamReport{
		Scenario: sc.Name,
		Seed:     seed,
		Shards:   shards,
		Vertices: h.N(),
	}
	mat, err := graph.NewShardedGraph(h, shards)
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: materialized shard: %w", sc.Name, err)
	}
	sb, err := graph.NewShardedBuilder(h.N(), mat.Starts)
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: stream builder: %w", sc.Name, err)
	}
	if err := graph.StreamOf(h)(sb.AddEdge); err != nil {
		return nil, fmt.Errorf("distsim: %s: stream: %w", sc.Name, err)
	}
	rep.PeakBufferedEdges = sb.PeakBufferedEdges()
	str, err := sb.Build()
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: stream build: %w", sc.Name, err)
	}
	if err := conformStreamSlices(mat, str); err != nil {
		return nil, fmt.Errorf("distsim: %s: %w", sc.Name, err)
	}
	if err := conformStreamDecomp(cg, mat, str, seed, rep); err != nil {
		return nil, fmt.Errorf("distsim: %s: %w", sc.Name, err)
	}
	return rep, nil
}

// conformStreamSlices asserts the streamed sharded view is byte-identical to
// the materialized one on every surface both construction paths produce.
func conformStreamSlices(mat, str *graph.ShardedGraph) error {
	if str.G != nil {
		return fmt.Errorf("streamed view materialized a global graph")
	}
	if !slices.Equal(str.Starts, mat.Starts) {
		return fmt.Errorf("streamed starts %v, want %v", str.Starts, mat.Starts)
	}
	if str.N() != mat.N() || str.M() != mat.M() || str.MaxDegree() != mat.MaxDegree() {
		return fmt.Errorf("streamed dims n=%d m=%d Δ=%d, want n=%d m=%d Δ=%d",
			str.N(), str.M(), str.MaxDegree(), mat.N(), mat.M(), mat.MaxDegree())
	}
	for s := range mat.Slices {
		want, got := mat.Slices[s], str.Slices[s]
		if got.Shard != want.Shard || got.Lo != want.Lo || got.Hi != want.Hi {
			return fmt.Errorf("slice %d bounds [%d,%d), want [%d,%d)", s, got.Lo, got.Hi, want.Lo, want.Hi)
		}
		if got.CSR.N() != want.CSR.N() || got.CSR.M() != want.CSR.M() || got.CSR.MaxDegree() != want.CSR.MaxDegree() {
			return fmt.Errorf("slice %d local CSR dims diverge", s)
		}
		for lv := 0; lv < want.CSR.N(); lv++ {
			if got.CSR.AdjOffset(lv) != want.CSR.AdjOffset(lv) {
				return fmt.Errorf("slice %d local row %d offset diverges", s, lv)
			}
			if !slices.Equal(got.CSR.Neighbors(lv), want.CSR.Neighbors(lv)) {
				return fmt.Errorf("slice %d local row %d diverges", s, lv)
			}
		}
		if !slices.Equal(got.Halo, want.Halo) || !slices.Equal(got.HaloOwner, want.HaloOwner) {
			return fmt.Errorf("slice %d halo diverges", s)
		}
		if !slices.Equal(got.Boundary, want.Boundary) || got.BoundaryEdges != want.BoundaryEdges {
			return fmt.Errorf("slice %d boundary diverges", s)
		}
	}
	return nil
}

// conformStreamDecomp runs the sharded decomposition on both construction
// paths with identical seeds and asserts bit-identical decompositions with
// equal charged rounds and boundary-exchange traffic.
func conformStreamDecomp(cg *cluster.CG, mat, str *graph.ShardedGraph, seed uint64, rep *StreamReport) error {
	eps := 0.25
	runOne := func(sg *graph.ShardedGraph) (*acd.Decomposition, int64, *shard.Engine[int8], error) {
		sub, err := network.NewCostModel(cg.Cost().Bandwidth())
		if err != nil {
			return nil, 0, nil, err
		}
		run := cg.WithCost(sub)
		se := shard.NewEngine(sg, sketch.MaxKernel{})
		d, err := acd.ComputeShardedWith(run, se, eps, parwork.StreamRNG(seed^0xdec0), acd.NewWorkspace())
		if err != nil {
			return nil, 0, nil, err
		}
		return d, sub.Rounds(), se, nil
	}
	wantD, wantRounds, wantSE, err := runOne(mat)
	if err != nil {
		return fmt.Errorf("materialized decomp: %w", err)
	}
	gotD, gotRounds, gotSE, err := runOne(str)
	if err != nil {
		return fmt.Errorf("streamed decomp: %w", err)
	}
	for v := range wantD.CliqueOf {
		if gotD.CliqueOf[v] != wantD.CliqueOf[v] {
			return fmt.Errorf("streamed decomp: CliqueOf[%d] = %d, want %d", v, gotD.CliqueOf[v], wantD.CliqueOf[v])
		}
	}
	if len(gotD.Cliques) != len(wantD.Cliques) {
		return fmt.Errorf("streamed decomp: %d cliques, want %d", len(gotD.Cliques), len(wantD.Cliques))
	}
	if gotRounds != wantRounds {
		return fmt.Errorf("streamed decomp: charged %d rounds, want %d — construction must not change the budget", gotRounds, wantRounds)
	}
	if gotSE.Stats.Rows != wantSE.Stats.Rows || gotSE.Stats.Bits != wantSE.Stats.Bits ||
		gotSE.Stats.MaxPhaseBits != wantSE.Stats.MaxPhaseBits {
		return fmt.Errorf("streamed decomp: exchange stats %+v, want %+v", gotSE.Stats, wantSE.Stats)
	}
	rep.DecompRounds = gotRounds
	rep.DecompExchangedRows = gotSE.Stats.Rows
	rep.DecompExchangedBits = gotSE.Stats.Bits
	return nil
}
