package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"clustercolor/internal/acd"
	"clustercolor/internal/benchwork"
	"clustercolor/internal/cluster"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// shardBenchReport is the BENCH_shard.json schema: for every decomposition
// workload, one unsharded reference cell plus a grid of shard count ×
// parallelism cells, each with the run time, the charged rounds (asserted
// equal across the whole grid — sharding is an execution layout, not a cost
// change), and the cross-shard exchange traffic that IS new in a partitioned
// run.
type shardBenchReport struct {
	Schema     string `json:"schema"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	MaxN       int    `json:"max_n,omitempty"`
	StreamMaxN int    `json:"stream_max_n,omitempty"`
	// GridLevels is the honest parallelism grid of the shard × parallelism
	// sweep; DegradedGrid marks a report whose requested grid (1, 2, 4,
	// NumCPU) collapsed to a single effective level on the emitting box.
	GridLevels   []int              `json:"grid_levels"`
	DegradedGrid bool               `json:"degraded_grid,omitempty"`
	Note         string             `json:"note"`
	Benchmarks   []shardBenchResult `json:"benchmarks"`
	// Streaming holds the streaming-construction rows: GNP instances
	// produced as edge streams and partitioned into slices without ever
	// materializing a global CSR, at sizes past what the grid above (and the
	// global builder's 2³⁰−1 edge cap) can reach.
	Streaming []shardStreamResult `json:"streaming,omitempty"`
}

const shardBenchNote = "charged rounds are shard-invariant (every cell of a workload equals its unsharded reference; the emitter errors otherwise); exchanged rows/bits are boundary-exchange traffic of the execution layout, charged separately from cluster rounds"

// shardBenchResult is one grid cell. Shards 0 marks the unsharded reference
// the speedups are measured against.
type shardBenchResult struct {
	benchResult
	Vertices int   `json:"vertices"`
	Delta    int   `json:"delta"`
	Shards   int   `json:"shards"`
	Rounds   int64 `json:"rounds"`
	// HaloVertices is the total replicated-boundary footprint of the
	// partition (sum of halo sizes over shards); PartitionNs is the one-time
	// slice-construction cost, reported on the first cell of each shard
	// count.
	HaloVertices int   `json:"halo_vertices,omitempty"`
	PartitionNs  int64 `json:"partition_ns,omitempty"`
	// ExchangedRows/Bits total the boundary-exchange phases of one run;
	// MaxPhaseBits is the heaviest single phase; ExchangeNs is the wall-clock
	// share those phases cost the run.
	ExchangedRows  int64 `json:"exchanged_rows"`
	ExchangedBits  int64 `json:"exchanged_bits"`
	MaxPhaseBits   int64 `json:"max_phase_bits,omitempty"`
	ExchangePhases int   `json:"exchange_phases,omitempty"`
	ExchangeNs     int64 `json:"exchange_ns,omitempty"`
	// Speedup is unsharded-reference ns/op over this cell's ns/op;
	// SpeedupVsSerial compares the cell with the parallelism-1 cell of the
	// same workload and shard count (the per-shard-count scaling curve).
	Speedup         float64 `json:"speedup_vs_unsharded,omitempty"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// shardStreamResult is one streaming-construction row: a GNP instance
// produced as an edge stream — never materialized globally — and partitioned
// into per-shard slices by the streaming builder.
type shardStreamResult struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Delta    int    `json:"delta"`
	Shards   int    `json:"shards"`
	// Eps is the decomposition accuracy the row's runs use. Streaming rows run
	// at a coarser eps than the grid: sketch trials grow as Θ(ξ⁻² log n) and
	// sharded arenas hold owned+halo rows, so the n=10⁷ ladder rung only fits
	// in memory at the top of the decomposition's (0, 1/3) eps domain.
	Eps float64 `json:"eps"`
	// Parallelism is the worker budget of the row's runs (already effective:
	// streaming rows run at GOMAXPROCS).
	Parallelism int `json:"parallelism"`
	// PartitionNs is the wall time to drain the edge stream and build every
	// slice; PeakBufferedEdges is the builder's high-water mark of buffered
	// packed edges (8 bytes each) — the transient cost the streaming path
	// pays instead of a global CSR.
	PartitionNs       int64 `json:"partition_ns"`
	PeakBufferedEdges int   `json:"peak_buffered_edges"`
	// PeakSliceBytes is the largest single-slice footprint (local CSR plus
	// halo and boundary tables) — the per-process resident size a
	// multi-process deployment would need; HaloVertices totals the
	// replicated boundary over all slices.
	PeakSliceBytes int64 `json:"peak_slice_bytes"`
	HaloVertices   int   `json:"halo_vertices"`
	// DecompNs/Rounds/Exchanged* report one sharded decomposition over the
	// streamed slices under a headless cluster view (set on rows that ran
	// one — at minimum the largest).
	DecompNs      int64 `json:"decomp_ns,omitempty"`
	Rounds        int64 `json:"rounds,omitempty"`
	ExchangedRows int64 `json:"exchanged_rows,omitempty"`
	ExchangedBits int64 `json:"exchanged_bits,omitempty"`
	// DigestChecked marks the overlap row whose decomposition was re-run on
	// a materialized construction of the same instance under the
	// materialized singleton fixture and compared bit for bit (FNV digest of
	// the clique assignment, plus charged rounds).
	DigestChecked bool `json:"digest_checked,omitempty"`
}

// shardGrid returns the shard counts every workload runs at.
func shardGrid() []int { return []int{1, 2, 4, 8} }

// shardParGrid returns the parallelism levels of the grid — 1, 2, 4, and
// NumCPU, deduplicated and sorted, with oversubscribed levels skipped so
// every cell measures a worker count the scheduler can deliver — plus the
// degraded-grid verdict (or a refusal under -require-full-grid).
func shardParGrid() ([]int, bool, error) {
	return parGrid("shardbench", defaultCurveGrid()...)
}

// emitShardBench benchmarks the partitioned decomposition substrate on every
// workload with N ≤ maxN (maxN ≤ 0 = no cap) and writes BENCH_shard.json to
// path ("-" for stdout). streamN > 0 additionally emits the
// streaming-construction rows for GNP edge streams up to that many vertices.
func emitShardBench(path string, seed uint64, maxN, streamN int) error {
	return emitShardBenchWorkloads(path, seed, maxN, streamN, benchwork.ACDWorkloads())
}

// emitShardBenchWorkloads is emitShardBench over an explicit workload list,
// so tests can exercise the emitter on small instances.
func emitShardBenchWorkloads(path string, seed uint64, maxN, streamN int, workloads []benchwork.ACDWorkload) error {
	report := shardBenchReport{
		Schema:     "clustercolor/bench-shard/v1",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Note:       shardBenchNote,
	}
	if maxN > 0 {
		report.MaxN = maxN
	}
	pars, degraded, err := shardParGrid()
	if err != nil {
		return err
	}
	report.GridLevels = pars
	report.DegradedGrid = degraded
	for _, w := range workloads {
		if maxN > 0 && w.N > maxN {
			continue
		}
		h, err := w.Build()
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		cg, err := benchwork.NewACDInstance(h, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		ws := acd.NewWorkspace()
		// Unsharded reference at parallelism 1: the baseline every grid
		// cell's speedup and charged rounds are measured against. The seed is
		// fixed across all iterations and cells so the byte-identity contract
		// makes the round assertion exact.
		var refRounds int64
		prev := parwork.SetParallelism(1)
		res, err := measure(w.Name+"/unsharded", func(int) error {
			before := cg.Cost().Rounds()
			_, _, err := benchwork.RunACDOnce(cg, w.Eps, seed, ws)
			refRounds = cg.Cost().Rounds() - before
			return err
		})
		parwork.SetParallelism(prev)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		ref := shardBenchResult{
			benchResult: res,
			Vertices:    h.N(),
			Delta:       h.MaxDegree(),
			Rounds:      refRounds,
		}
		ref.Parallelism = 1
		ref.EffectiveParallelism = effectivePar(1)
		ref.Edges = h.M()
		report.Benchmarks = append(report.Benchmarks, ref)
		for _, k := range shardGrid() {
			t0 := time.Now()
			sg, err := graph.NewShardedGraph(h, k)
			if err != nil {
				return fmt.Errorf("%s: shards=%d: %w", w.Name, k, err)
			}
			partitionNs := time.Since(t0).Nanoseconds()
			halo := 0
			for _, sl := range sg.Slices {
				halo += len(sl.Halo)
			}
			var serialNs float64
			for _, par := range pars {
				var rounds int64
				var stats shard.ExchangeStats
				prev := parwork.SetParallelism(par)
				// The engine splits its per-shard pool shares from the
				// parallelism knob at construction, so it is built inside the
				// SetParallelism scope.
				se := shard.NewEngine(sg, sketch.MaxKernel{})
				res, err := measure(fmt.Sprintf("%s/shards=%d/par=%d", w.Name, k, par), func(int) error {
					se.ResetStats()
					before := cg.Cost().Rounds()
					_, _, err := benchwork.RunACDShardedOnce(cg, se, w.Eps, seed, ws)
					rounds = cg.Cost().Rounds() - before
					stats = se.Stats
					return err
				})
				parwork.SetParallelism(prev)
				if err != nil {
					return fmt.Errorf("%s: shards=%d par=%d: %w", w.Name, k, par, err)
				}
				if rounds != refRounds {
					return fmt.Errorf("%s: shards=%d par=%d charged %d rounds, unsharded reference charged %d — sharding must not change the round budget",
						w.Name, k, par, rounds, refRounds)
				}
				if k == 1 && stats.Rows != 0 {
					return fmt.Errorf("%s: single shard exchanged %d rows", w.Name, stats.Rows)
				}
				rec := shardBenchResult{
					benchResult:    res,
					Vertices:       h.N(),
					Delta:          h.MaxDegree(),
					Shards:         k,
					Rounds:         rounds,
					HaloVertices:   halo,
					ExchangedRows:  stats.Rows,
					ExchangedBits:  stats.Bits,
					MaxPhaseBits:   stats.MaxPhaseBits,
					ExchangePhases: len(stats.Phases),
					ExchangeNs:     stats.ExchangeNs,
				}
				rec.Parallelism = par
				rec.EffectiveParallelism = effectivePar(par)
				rec.Edges = h.M()
				if par == pars[0] {
					rec.PartitionNs = partitionNs
					serialNs = rec.NsPerOp
				}
				if rec.NsPerOp > 0 {
					rec.Speedup = ref.NsPerOp / rec.NsPerOp
					if serialNs > 0 {
						rec.SpeedupVsSerial = serialNs / rec.NsPerOp
					}
				}
				report.Benchmarks = append(report.Benchmarks, rec)
			}
		}
	}
	if streamN > 0 {
		report.StreamMaxN = streamN
		if err := emitShardStreamRows(&report, seed, streamN); err != nil {
			return err
		}
	}
	return writeReport(path, report)
}

// streamSizes returns the GNP ladder the streaming rows run at, capped at
// maxN. A cap below the ladder (the CI smoke) collapses to the cap itself so
// the whole path still executes.
func streamSizes(maxN int) []int {
	var out []int
	for _, n := range []int{100_000, 1_000_000, 10_000_000} {
		if n <= maxN {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{maxN}
	}
	return out
}

// cliqueDigest is an FNV-1a digest of the clique assignment — enough to
// compare two decompositions of the same instance bit for bit without
// holding both in memory.
func cliqueDigest(d *acd.Decomposition) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, c := range d.CliqueOf {
		binary.LittleEndian.PutUint32(buf[:], uint32(c))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// sliceBytes is the resident footprint of one slice: local CSR offsets and
// adjacency plus the halo, halo-owner, and boundary tables (4 bytes per
// entry; the adjacency holds 2m int32 neighbor slots).
func sliceBytes(sl *graph.ShardSlice) int64 {
	return int64(4*(sl.CSR.N()+1)) + int64(8*sl.CSR.M()) +
		int64(4*(len(sl.Halo)+len(sl.HaloOwner)+len(sl.Boundary)))
}

// emitShardStreamRows appends the streaming-construction rows: for each
// ladder size, a GNP edge stream is partitioned into slices with no global
// CSR, recording partition cost and peak slice footprint. The smallest row's
// decomposition is cross-checked bit for bit against the materialized
// construction of the same instance (streamed slices + headless view versus
// materialized slices + singleton fixture, which charge identically), and
// the largest row runs one streamed decomposition end to end.
func emitShardStreamRows(report *shardBenchReport, seed uint64, maxN int) error {
	// The ladder's top rung (n=10⁷) sizes everything here. Sketch trials are
	// Θ(ξ⁻² log n) with ξ = eps/4 inside the decomposition, and the per-slice
	// arenas hold owned AND halo rows, so the two arenas cost
	// (n + Σ halo)·t·4 bytes: the grid's eps 0.25 / deg 64 shape would need
	// hundreds of GB at n=10⁷. eps 0.3 (the top of the decomposition's
	// (0, 1/3) domain), degree 4, and two shards keep halos near 0.86n and
	// t at 1163 — ~87 GB of arenas, which fits a 125 GB box.
	const shards = 2
	const eps = 0.3
	const deg = 4.0
	sizes := streamSizes(maxN)
	par := runtime.GOMAXPROCS(0)
	prev := parwork.SetParallelism(par)
	defer parwork.SetParallelism(prev)
	ws := acd.NewWorkspace()
	runOnce := func(cg *cluster.CG, sg *graph.ShardedGraph, rngSeed uint64) (uint64, int64, shard.ExchangeStats, int64, error) {
		se := shard.NewEngine(sg, sketch.MaxKernel{})
		t0 := time.Now()
		d, err := benchwork.RunACDStreamedOnce(cg, se, eps, rngSeed, ws)
		if err != nil {
			return 0, 0, shard.ExchangeStats{}, 0, err
		}
		return cliqueDigest(d), cg.Cost().Rounds(), se.Stats, time.Since(t0).Nanoseconds(), nil
	}
	for i, n := range sizes {
		fmt.Fprintf(os.Stderr, "benchtables: shardbench: streaming row n=%d (of %v)\n", n, sizes)
		p := deg / float64(n)
		gnpSeed := seed ^ uint64(n)
		stream, err := graph.GNPStream(n, p, gnpSeed)
		if err != nil {
			return fmt.Errorf("shardstream: n=%d: %w", n, err)
		}
		starts, err := graph.EvenStarts(n, shards)
		if err != nil {
			return fmt.Errorf("shardstream: n=%d: %w", n, err)
		}
		sb, err := graph.NewShardedBuilder(n, starts)
		if err != nil {
			return fmt.Errorf("shardstream: n=%d: %w", n, err)
		}
		t0 := time.Now()
		if err := stream(sb.AddEdge); err != nil {
			return fmt.Errorf("shardstream: n=%d: %w", n, err)
		}
		peakEdges := sb.PeakBufferedEdges()
		sg, err := sb.Build()
		if err != nil {
			return fmt.Errorf("shardstream: n=%d: %w", n, err)
		}
		partitionNs := time.Since(t0).Nanoseconds()
		rec := shardStreamResult{
			Name:              fmt.Sprintf("StreamGNP/n=%d/deg=%.0f/shards=%d", n, deg, shards),
			Vertices:          n,
			Edges:             sg.M(),
			Delta:             sg.MaxDegree(),
			Shards:            shards,
			Eps:               eps,
			Parallelism:       par,
			PartitionNs:       partitionNs,
			PeakBufferedEdges: peakEdges,
		}
		halo := 0
		for _, sl := range sg.Slices {
			halo += len(sl.Halo)
			if b := sliceBytes(sl); b > rec.PeakSliceBytes {
				rec.PeakSliceBytes = b
			}
		}
		rec.HaloVertices = halo
		if i == 0 {
			// Overlap row: the streamed decomposition must match a
			// materialized run of the same instance bit for bit, rounds
			// included.
			cg, err := benchwork.NewStreamedACDInstance(n)
			if err != nil {
				return err
			}
			digest, rounds, stats, ns, err := runOnce(cg, sg, seed)
			if err != nil {
				return fmt.Errorf("shardstream: n=%d: streamed decomp: %w", n, err)
			}
			h, err := graph.GNP(n, p, graph.NewRand(gnpSeed))
			if err != nil {
				return err
			}
			msg, err := graph.NewShardedGraph(h, shards)
			if err != nil {
				return err
			}
			mcg, err := benchwork.NewACDInstance(h, seed)
			if err != nil {
				return err
			}
			mDigest, mRounds, _, _, err := runOnce(mcg, msg, seed)
			if err != nil {
				return fmt.Errorf("shardstream: n=%d: materialized decomp: %w", n, err)
			}
			if digest != mDigest || rounds != mRounds {
				return fmt.Errorf("shardstream: n=%d: streamed decomposition diverges from materialized (digest %x/%x, rounds %d/%d)",
					n, digest, mDigest, rounds, mRounds)
			}
			rec.DecompNs, rec.Rounds = ns, rounds
			rec.ExchangedRows, rec.ExchangedBits = stats.Rows, stats.Bits
			rec.DigestChecked = true
		} else if i == len(sizes)-1 {
			// Largest row: the acceptance run — a sharded decomposition on a
			// streamed instance with no global CSR anywhere.
			cg, err := benchwork.NewStreamedACDInstance(n)
			if err != nil {
				return err
			}
			_, rounds, stats, ns, err := runOnce(cg, sg, seed)
			if err != nil {
				return fmt.Errorf("shardstream: n=%d: streamed decomp: %w", n, err)
			}
			rec.DecompNs, rec.Rounds = ns, rounds
			rec.ExchangedRows, rec.ExchangedBits = stats.Rows, stats.Bits
		}
		report.Streaming = append(report.Streaming, rec)
	}
	return nil
}
