package distsim

import (
	"fmt"
	"math"

	"clustercolor/internal/acd"
	"clustercolor/internal/cluster"
	"clustercolor/internal/core"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// ShardReport summarizes one scenario's shard-conformance run at one shard
// count. A returned report means every layer byte-matched its unsharded
// counterpart; any divergence surfaces as an error instead.
type ShardReport struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Shards   int    `json:"shards"`
	Vertices int    `json:"vertices"`
	Machines int    `json:"machines"`
	// WaveExchangedRows counts wave-protocol messages whose recipient is
	// owned by another slice than their sender.
	WaveExchangedRows int64 `json:"wave_exchanged_rows"`
	// DecompRounds is the decomposition's charged round count — equal on
	// both substrates by the conformance assertion.
	DecompRounds int64 `json:"decomp_rounds"`
	// DecompExchangedRows/Bits are the sketch rows (and deviation-encoded
	// bits) the shard engine's boundary exchanges shipped.
	DecompExchangedRows int64 `json:"decomp_exchanged_rows"`
	DecompExchangedBits int64 `json:"decomp_exchanged_bits"`
	// PipelineRounds is the full pipeline's charged rounds — also equal on
	// both substrates.
	PipelineRounds int64 `json:"pipeline_rounds"`
}

// ShardConformance is the partitioned substrate's differential harness: for
// one scenario it asserts, at the given shard count, that
//
//  1. the machine-level fingerprint wave on the engine over the k-slice
//     partition produces byte-identical sketches AND byte-identical
//     LinkStats to the one-slice run — per-link traffic of a partitioned
//     run sums to the one-slice budgets — and stays within the charged
//     round budget (CheckBudget);
//  2. the vertex-level decomposition on the shard engine (per-shard arenas,
//     boundary-exchange phases, merged boundary rows) reproduces the
//     unsharded decomposition and profile bit for bit with equal charged
//     rounds;
//  3. the full coloring pipeline with Params.Shards set emits the exact
//     coloring and round count of the unsharded run.
func ShardConformance(sc Scenario, seed uint64, engineBandwidth, shards int) (*ShardReport, error) {
	if engineBandwidth <= 0 {
		engineBandwidth = DefaultEngineBandwidth
	}
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
	rep := &ShardReport{
		Scenario: sc.Name,
		Seed:     seed,
		Shards:   shards,
		Vertices: h.N(),
		Machines: exp.G.N(),
	}
	if err := conformShardWave(cg, seed, engineBandwidth, shards, rep); err != nil {
		return nil, fmt.Errorf("distsim: %s: %w", sc.Name, err)
	}
	if err := conformShardDecomp(cg, seed, shards, rep); err != nil {
		return nil, fmt.Errorf("distsim: %s: %w", sc.Name, err)
	}
	if err := conformShardPipeline(cg, sc, seed, shards, rep); err != nil {
		return nil, fmt.Errorf("distsim: %s: %w", sc.Name, err)
	}
	return rep, nil
}

// conformShardWave runs the machine-granularity fingerprint wave on both
// substrates and asserts byte-identical sketches and LinkStats.
func conformShardWave(cg *cluster.CG, seed uint64, engineBandwidth, shards int, rep *ShardReport) error {
	samples := drawSamples(cg.H.N(), 24, graph.NewRand(seed^0x5eed))
	sub, err := network.NewCostModel(cg.Cost().Bandwidth())
	if err != nil {
		return err
	}
	var ref sketch.Arena[int8]
	if _, err := sketch.Collect(cg.WithCost(sub), "conf/wave", sketch.MaxKernel{}, samples, &ref, sketch.CollectOptions{}); err != nil {
		return fmt.Errorf("wave: vertex level: %w", err)
	}
	want, wantStats, _, err := FingerprintWave(cg, samples, engineBandwidth, 1)
	if err != nil {
		return fmt.Errorf("wave: %w", err)
	}
	got, gotStats, exRows, err := FingerprintWave(cg, samples, engineBandwidth, shards)
	if err != nil {
		return fmt.Errorf("sharded wave: %w", err)
	}
	for v := 0; v < cg.H.N(); v++ {
		for i := range want[v] {
			if got[v][i] != want[v][i] {
				return fmt.Errorf("sharded wave: vertex %d trial %d: sharded %d != unsharded %d", v, i, got[v][i], want[v][i])
			}
		}
	}
	if gotStats != wantStats {
		return fmt.Errorf("sharded wave: LinkStats diverge: sharded %+v unsharded %+v — per-link budgets must sum to the single-engine budgets", gotStats, wantStats)
	}
	if err := CheckBudget("sharded-wave", gotStats, sub.Rounds(), engineBandwidth); err != nil {
		return err
	}
	if shards == 1 && exRows != 0 {
		return fmt.Errorf("sharded wave: single shard exchanged %d rows", exRows)
	}
	rep.WaveExchangedRows = exRows
	return nil
}

// conformShardDecomp runs the decomposition + profile on both substrates
// with identical seeds and asserts bit-identical outputs and equal charges.
func conformShardDecomp(cg *cluster.CG, seed uint64, shards int, rep *ShardReport) error {
	eps, ell := 0.25, 8.0
	delta := float64(cg.H.MaxDegree())
	runOne := func(k int) (*acd.Decomposition, *acd.Profile, int64, *shard.Engine[int8], error) {
		sub, err := network.NewCostModel(cg.Cost().Bandwidth())
		if err != nil {
			return nil, nil, 0, nil, err
		}
		run := cg.WithCost(sub)
		rng := parwork.StreamRNG(seed ^ 0xdec0)
		ws := acd.NewWorkspace()
		if k <= 0 {
			d, err := acd.ComputeWith(run, eps, rng, ws)
			if err != nil {
				return nil, nil, 0, nil, err
			}
			p, err := acd.BuildProfileWith(run, d, delta, ell, rng, ws)
			return d, p, sub.Rounds(), nil, err
		}
		sg, err := graph.NewShardedGraph(run.H, k)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		se := shard.NewEngine(sg, sketch.MaxKernel{})
		d, err := acd.ComputeShardedWith(run, se, eps, rng, ws)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		p, err := acd.BuildProfileShardedWith(run, se, d, delta, ell, rng, ws)
		return d, p, sub.Rounds(), se, err
	}
	wantD, wantP, wantRounds, _, err := runOne(0)
	if err != nil {
		return fmt.Errorf("decomp: %w", err)
	}
	gotD, gotP, gotRounds, se, err := runOne(shards)
	if err != nil {
		return fmt.Errorf("sharded decomp: %w", err)
	}
	for v := range wantD.CliqueOf {
		if gotD.CliqueOf[v] != wantD.CliqueOf[v] {
			return fmt.Errorf("sharded decomp: CliqueOf[%d] = %d, want %d", v, gotD.CliqueOf[v], wantD.CliqueOf[v])
		}
	}
	if len(gotD.Cliques) != len(wantD.Cliques) {
		return fmt.Errorf("sharded decomp: %d cliques, want %d", len(gotD.Cliques), len(wantD.Cliques))
	}
	for i := range wantP.AvgExt {
		if math.Float64bits(gotP.AvgExt[i]) != math.Float64bits(wantP.AvgExt[i]) || gotP.IsCabal[i] != wantP.IsCabal[i] {
			return fmt.Errorf("sharded decomp: profile of clique %d diverges", i)
		}
	}
	for v := range wantP.ExtDeg {
		if math.Float64bits(gotP.ExtDeg[v]) != math.Float64bits(wantP.ExtDeg[v]) {
			return fmt.Errorf("sharded decomp: ExtDeg[%d] diverges", v)
		}
	}
	if gotRounds != wantRounds {
		return fmt.Errorf("sharded decomp: charged %d rounds, want %d — sharding must not change the budget", gotRounds, wantRounds)
	}
	rep.DecompRounds = gotRounds
	if se != nil {
		rep.DecompExchangedRows = se.Stats.Rows
		rep.DecompExchangedBits = se.Stats.Bits
	}
	return nil
}

// conformShardPipeline runs the full coloring with and without
// Params.Shards and asserts the exact coloring and round count.
func conformShardPipeline(cg *cluster.CG, sc Scenario, seed uint64, shards int, rep *ShardReport) error {
	runOne := func(k int) ([]int32, int64, *core.Stats, error) {
		sub, err := network.NewCostModel(cg.Cost().Bandwidth())
		if err != nil {
			return nil, 0, nil, err
		}
		run := cg.WithCost(sub)
		params := core.DefaultParams(cg.H.N())
		if sc.Params != nil {
			params = sc.Params(cg.H.N())
		}
		params.Seed = seed
		params.Shards = k
		col, stats, err := core.Color(run, params)
		if err != nil {
			return nil, 0, nil, err
		}
		out := make([]int32, cg.H.N())
		for v := range out {
			out[v] = col.Get(v)
		}
		return out, sub.Rounds(), stats, nil
	}
	want, wantRounds, _, err := runOne(0)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	got, gotRounds, stats, err := runOne(shards)
	if err != nil {
		return fmt.Errorf("sharded pipeline: %w", err)
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("sharded pipeline: color of %d = %d, want %d", v, got[v], want[v])
		}
	}
	if gotRounds != wantRounds {
		return fmt.Errorf("sharded pipeline: charged %d rounds, want %d", gotRounds, wantRounds)
	}
	if shards > 1 && stats.Path == "high-degree" && stats.Shards != shards {
		return fmt.Errorf("sharded pipeline: stats report %d shards, want %d", stats.Shards, shards)
	}
	rep.PipelineRounds = gotRounds
	return nil
}
