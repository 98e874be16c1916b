// Command benchtables regenerates every experiment table of the evaluation
// (E1–E18 and the ablations A1–A5, indexed in the internal/experiments
// package doc) and prints them. Run with -id to select a subset.
//
//	benchtables                      # the full battery
//	benchtables -id E7,E8            # selected experiments
//	benchtables -seed 9              # different randomness
//	benchtables -parallel 1          # sequential reference run (same output)
//	benchtables -enginebench out.json  # emit engine benchmarks instead
//	benchtables -graphbench out.json   # emit graph-generator benchmarks instead
//	benchtables -colorbench out.json   # emit stage-level coloring benchmarks instead
//	benchtables -distsimbench out.json # emit machine-granularity conformance benchmarks instead
//	benchtables -acdbench out.json     # emit decomposition benchmarks instead (-acdn caps size)
//	benchtables -sketchbench out.json  # emit sketch-engine benchmarks instead (-sketchn caps size)
//	benchtables -shardbench out.json   # emit partitioned-substrate benchmarks instead (-shardn caps size, -shardstream adds streaming rows)
//	benchtables -speedupbench out.json # emit per-stage speedup curves instead (-speedupn caps size, -speedupgrid picks levels)
//	benchtables -compare old.json new.json # print a per-row delta table between two artifacts of the same schema
//
// Tables are computed by a parallel runner that fans experiments and their
// rows across CPUs; the output is byte-identical for every -parallel value.
// -enginebench benchmarks one gossip round of the round engine over the
// one-slice partition and the experiment runner, and writes a
// machine-readable JSON report (conventionally BENCH_engine.json). -graphbench does the same for the
// O(n+m) instance generators (conventionally BENCH_graph.json), and
// -colorbench for the coloring pipeline itself with per-stage round
// breakdowns and palette micro-benchmarks (conventionally BENCH_color.json).
// -acdbench benchmarks the fingerprint→ACD→profile decomposition stack
// (conventionally BENCH_acd.json) with dense/sparse/cabal counts and peak
// sketch payloads per workload. -sketchbench benchmarks the mergeable-sketch
// engine itself (conventionally BENCH_sketch.json): the isolated merge
// kernel (AVX2 where the CPU has it, SWAR otherwise) against its scalar
// reference, collect waves at parallelism
// 1/2/4/NumCPU, and bits-per-vertex plus accuracy for every estimator
// variant. -shardbench benchmarks the partitioned execution substrate
// (conventionally BENCH_shard.json): the decomposition at shard counts
// 1/2/4/8 × parallelism 1/2/4/NumCPU against an unsharded reference, with
// charged rounds asserted shard-invariant and the cross-shard
// boundary-exchange traffic reported per cell. Adding -shardstream N emits
// streaming-construction rows: GNP edge streams partitioned into slices with
// no global CSR, up to n = N, with partition cost, peak slice footprint, and
// a digest cross-check against the materialized path at the overlap size.
// -speedupbench measures the per-stage scaling surface (conventionally
// BENCH_speedup.json): decompose, matchings, SCTs, palettes, donation,
// low-degree, sketch collect, and sharded boundary exchange, each timed at
// parallelism 1/2/4/NumCPU with speedup-vs-serial per point; the stage
// outputs are byte-identical across levels, so the curves move wall-clock
// only.
// Parallelism grids are honest: every row records its effective
// min(parallelism, GOMAXPROCS), and cells requesting more workers than
// GOMAXPROCS can schedule are skipped with a note on stderr. A grid that
// collapses to a single effective level annotates the report header with
// degraded_grid=true; under -require-full-grid the emitter refuses instead,
// so CI can assert that published artifacts really measured a multi-level
// surface.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"clustercolor/internal/experiments"
)

func main() {
	var (
		seed       = flag.Uint64("seed", 1, "random seed")
		ids        = flag.String("id", "", "comma-separated experiment ids (empty = all)")
		ablations  = flag.Bool("ablations", false, "also run the ablation battery (A1–A5)")
		format     = flag.String("format", "table", "output format: table | csv")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "experiment runner parallelism (1 = sequential)")
		benchOut   = flag.String("enginebench", "", "run engine benchmarks and write BENCH_engine.json to this path ('-' = stdout), then exit")
		benchN     = flag.Int("benchn", 10000, "machine count for -enginebench")
		graphOut   = flag.String("graphbench", "", "run graph-generator benchmarks and write BENCH_graph.json to this path ('-' = stdout), then exit")
		colorOut   = flag.String("colorbench", "", "run stage-level coloring benchmarks and write BENCH_color.json to this path ('-' = stdout), then exit")
		distsimOut = flag.String("distsimbench", "", "run the machine-granularity conformance benchmarks and write BENCH_distsim.json to this path ('-' = stdout), then exit")
		acdOut     = flag.String("acdbench", "", "run decomposition benchmarks and write BENCH_acd.json to this path ('-' = stdout), then exit")
		acdN       = flag.Int("acdn", 0, "skip -acdbench workloads with more than this many vertices (0 = no cap; CI smoke uses a small cap)")
		sketchOut  = flag.String("sketchbench", "", "run sketch-engine benchmarks and write BENCH_sketch.json to this path ('-' = stdout), then exit")
		sketchN    = flag.Int("sketchn", 0, "skip -sketchbench workloads with more than this many vertices (0 = no cap; CI smoke uses a small cap)")
		shardOut   = flag.String("shardbench", "", "run partitioned-substrate benchmarks and write BENCH_shard.json to this path ('-' = stdout), then exit")
		shardN     = flag.Int("shardn", 0, "skip -shardbench workloads with more than this many vertices (0 = no cap; CI smoke uses a small cap)")
		streamN    = flag.Int("shardstream", 0, "with -shardbench: also emit streaming-construction rows for GNP edge streams up to this many vertices (0 = off; CI smoke uses a small cap)")
		speedupOut = flag.String("speedupbench", "", "measure per-stage speedup curves and write BENCH_speedup.json to this path ('-' = stdout), then exit")
		speedupN   = flag.Int("speedupn", 200_000, "skip -speedupbench workloads with more than this many vertices (0 = no cap; CI smoke uses a small cap)")
		speedupGr  = flag.String("speedupgrid", "", "comma-separated parallelism grid for -speedupbench (empty = 1,2,4,NumCPU)")
		fullGrid   = flag.Bool("require-full-grid", false, "refuse to emit any benchmark artifact whose parallelism grid collapses to a single effective level, instead of annotating it with degraded_grid")
		compareOld = flag.String("compare", "", "compare this baseline BENCH_*.json against the artifact given as the positional argument; print a per-row ns/op and allocs/op delta table, then exit")
	)
	flag.Parse()
	if *compareOld != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchtables: -compare old.json takes exactly one positional argument: the new artifact")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, *compareOld, flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		return
	}
	experiments.SetParallelism(*parallel)
	requireFullGrid = *fullGrid
	if *benchOut != "" || *graphOut != "" || *colorOut != "" || *distsimOut != "" || *acdOut != "" || *sketchOut != "" || *shardOut != "" || *speedupOut != "" {
		if *benchOut != "" {
			if err := emitEngineBench(*benchOut, *benchN, *seed); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				os.Exit(1)
			}
		}
		if *graphOut != "" {
			if err := emitGraphBench(*graphOut, *seed); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				os.Exit(1)
			}
		}
		if *colorOut != "" {
			if err := emitColorBench(*colorOut, *seed); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				os.Exit(1)
			}
		}
		if *distsimOut != "" {
			if err := emitDistsimBench(*distsimOut, *seed); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				os.Exit(1)
			}
		}
		if *acdOut != "" {
			if err := emitACDBench(*acdOut, *seed, *acdN); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				os.Exit(1)
			}
		}
		if *sketchOut != "" {
			if err := emitSketchBench(*sketchOut, *seed, *sketchN); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				os.Exit(1)
			}
		}
		if *shardOut != "" {
			if err := emitShardBench(*shardOut, *seed, *shardN, *streamN); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				os.Exit(1)
			}
		}
		if *speedupOut != "" {
			grid, err := parseParGrid(*speedupGr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				os.Exit(1)
			}
			if err := emitSpeedupBench(*speedupOut, *seed, *speedupN, grid); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				os.Exit(1)
			}
		}
		return
	}
	want := map[string]bool{}
	wantAblation := false
	if *ids != "" {
		for _, id := range strings.Split(*ids, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			want[id] = true
			if strings.HasPrefix(id, "A") {
				wantAblation = true
			}
		}
	}
	tables, err := experiments.All(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
	if *ablations || wantAblation {
		abl, err := experiments.Ablations(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		tables = append(tables, abl...)
	}
	for _, t := range tables {
		if len(want) > 0 && !want[t.ID] {
			continue
		}
		if *format == "csv" {
			fmt.Println(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}
}
