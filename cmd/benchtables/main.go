// Command benchtables regenerates every experiment table of the evaluation
// (E1–E18 and the ablations A1–A5, indexed in the internal/experiments
// package doc) and prints them. Run with -id to select a subset.
//
//	benchtables                      # the full battery
//	benchtables -id E7,E8            # selected experiments
//	benchtables -seed 9              # different randomness
//	benchtables -parallel 1          # sequential reference run (same output)
//	benchtables -distsimbench out.json # emit machine-granularity conformance benchmarks instead
//	benchtables -acdbench out.json     # emit decomposition benchmarks instead (-acdn caps size)
//	benchtables -sketchbench out.json  # emit sketch-engine benchmarks instead (-sketchn caps size)
//	benchtables -shardbench out.json   # emit partitioned-substrate benchmarks instead (-shardn caps size, -shardstream adds streaming rows)
//	benchtables -speedupbench out.json # emit per-stage speedup curves instead (-speedupn caps size, -speedupgrid picks levels)
//	benchtables -compare old.json new.json # print a per-row delta table between two artifacts of the same schema
//
// Tables are computed by a parallel runner that fans experiments and their
// rows across CPUs; the output is byte-identical for every -parallel value.
// The five -*bench emitters write machine-readable JSON reports
// (conventionally BENCH_<kind>.json) of what a run found and charged beside
// its timings, through one report writer; -acdbench, -sketchbench,
// -shardbench and -distsimbench time their rows with testing.Benchmark
// through one measure helper. The round engine, the instance generators,
// Color's stage-level workloads, the palette primitives and the isolated
// sketch kernels have no emitter: their `go test -bench` benchmarks
// (BenchmarkColor reports the rounds of its seed-1 run) measure the same
// workloads.
// -acdbench benchmarks the fingerprint→ACD→profile decomposition stack
// (conventionally BENCH_acd.json) with dense/sparse/cabal counts and peak
// sketch payloads per workload. -sketchbench benchmarks the mergeable-sketch
// engine's collect waves (conventionally BENCH_sketch.json) at parallelism
// 1/2/4/NumCPU, plus bits-per-vertex and accuracy of the estimator.
// -shardbench benchmarks the partitioned execution substrate
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
		check(runCompare(os.Stdout, *compareOld, flag.Arg(0)))
		return
	}
	experiments.SetParallelism(*parallel)
	requireFullGrid = *fullGrid
	emitted := false
	emit := func(path string, run func(path string) error) {
		if path != "" {
			emitted = true
			check(run(path))
		}
	}
	emit(*distsimOut, func(path string) error { return emitDistsimBench(path, *seed) })
	emit(*acdOut, func(path string) error { return emitACDBench(path, *seed, *acdN) })
	emit(*sketchOut, func(path string) error { return emitSketchBench(path, *seed, *sketchN) })
	emit(*shardOut, func(path string) error { return emitShardBench(path, *seed, *shardN, *streamN) })
	emit(*speedupOut, func(path string) error {
		grid, err := parseParGrid(*speedupGr)
		if err != nil {
			return err
		}
		return emitSpeedupBench(path, *seed, *speedupN, grid)
	})
	if emitted {
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
	check(err)
	if *ablations || wantAblation {
		abl, err := experiments.Ablations(*seed)
		check(err)
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

// check prints a non-nil err and exits with status 1.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}
