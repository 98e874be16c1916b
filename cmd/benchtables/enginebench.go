package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"clustercolor/internal/benchwork"
	"clustercolor/internal/experiments"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
)

// benchResult is one machine-readable benchmark record.
type benchResult struct {
	Name        string `json:"name"`
	Machines    int    `json:"machines,omitempty"`
	Edges       int    `json:"edges,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
	// EffectiveParallelism is min(Parallelism, GOMAXPROCS) at emission time
	// — the worker count the row actually ran with. Emitters skip grid cells
	// where the two would differ, so on any honest report this equals
	// Parallelism; it is recorded anyway so the artifact states the
	// conditions instead of asking the reader to trust them.
	EffectiveParallelism int     `json:"effective_parallelism,omitempty"`
	Iterations           int     `json:"iterations"`
	NsPerOp              float64 `json:"ns_per_op"`
	AllocsPerOp          int64   `json:"allocs_per_op"`
	BytesPerOp           int64   `json:"bytes_per_op"`
}

// benchReport is the BENCH_engine.json schema.
type benchReport struct {
	Schema     string `json:"schema"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	// GridLevels is the honest parallelism grid the runner sweep ran at;
	// DegradedGrid marks a report whose requested grid collapsed to a single
	// effective level on the emitting box.
	GridLevels   []int         `json:"grid_levels"`
	DegradedGrid bool          `json:"degraded_grid,omitempty"`
	Benchmarks   []benchResult `json:"benchmarks"`
}

func record(name string, r testing.BenchmarkResult) benchResult {
	return benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// engineStepBench measures one engine round (steady-state gossip) over the
// one-slice partition of g.
func engineStepBench(g *graph.Graph) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		sg, err := graph.NewShardedGraph(g, 1)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := network.NewEngine(sg, benchwork.GossipMachines(g), 0)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// runnerBench measures a cheap cross-section of the experiment battery at
// the given runner parallelism.
func runnerBench(par int, seed uint64) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		prev := experiments.SetParallelism(par)
		defer experiments.SetParallelism(prev)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, run := range benchwork.BatteryCrossSection(seed) {
				if _, err := run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// emitEngineBench runs the engine and runner benchmarks and writes the
// machine-readable report to path ("-" for stdout).
func emitEngineBench(path string, machines int, seed uint64) error {
	g, err := graph.GNP(machines, 8/float64(machines), graph.NewRand(seed))
	if err != nil {
		return err
	}
	report := benchReport{
		Schema:     "clustercolor/bench-engine/v1",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
	rec := record("EngineStep/pooled", engineStepBench(g))
	rec.Machines = g.N()
	rec.Edges = g.M()
	report.Benchmarks = append(report.Benchmarks, rec)
	// Measure sequential, two workers, the configured -parallel level, and
	// full parallelism — deduplicated, ascending, oversubscribed levels
	// dropped; a grid collapsed to one level annotates the header (or
	// refuses under -require-full-grid).
	levels, degraded, err := parGrid("enginebench", 1, 2, experiments.Parallelism(), runtime.NumCPU())
	if err != nil {
		return err
	}
	report.GridLevels = levels
	report.DegradedGrid = degraded
	for _, par := range levels {
		rec := record(fmt.Sprintf("ExperimentRunner/parallel-%d", par), runnerBench(par, seed))
		rec.Parallelism = par
		rec.EffectiveParallelism = effectivePar(par)
		report.Benchmarks = append(report.Benchmarks, rec)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
