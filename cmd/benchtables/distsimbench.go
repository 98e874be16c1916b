package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"clustercolor/internal/distsim"
	"clustercolor/internal/experiments"
)

// distsimBenchReport is the BENCH_distsim.json schema: one record per
// conformance scenario with the timing of a full machine-granularity
// conformance run and, per primitive, the engine-measured communication
// rounds next to the cost-model charge (plus bandwidth usage). It gives
// engine-level primitive cost a tracked trajectory the way
// BENCH_engine.json does for raw rounds and BENCH_color.json for the
// vertex-level pipeline.
type distsimBenchReport struct {
	Schema      string                 `json:"schema"`
	GoMaxProcs  int                    `json:"gomaxprocs"`
	Parallelism int                    `json:"parallelism"`
	Seed        uint64                 `json:"seed"`
	Scenarios   []distsimScenarioBench `json:"scenarios"`
}

type distsimScenarioBench struct {
	benchResult
	Vertices   int                       `json:"vertices"`
	Dilation   int                       `json:"dilation"`
	Primitives []distsim.PrimitiveReport `json:"primitives"`
}

// emitDistsimBench runs the conformance matrix under the benchmark driver
// and writes the machine-readable report to path ("-" for stdout).
func emitDistsimBench(path string, seed uint64) error {
	return emitDistsimBenchScenarios(path, seed, distsim.Matrix())
}

// emitDistsimBenchScenarios is emitDistsimBench over an explicit scenario
// list, so tests can exercise the emitter on a subset.
func emitDistsimBenchScenarios(path string, seed uint64, scenarios []distsim.Scenario) error {
	report := distsimBenchReport{
		Schema:      "clustercolor/bench-distsim/v1",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Parallelism: experiments.Parallelism(),
		Seed:        seed,
	}
	for _, sc := range scenarios {
		var rep *distsim.Report
		var loopErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := distsim.Conformance(sc, seed, 0)
				if err != nil {
					loopErr = fmt.Errorf("%s: %w", sc.Name, err)
					b.Fatal(err)
				}
				if rep == nil {
					rep = got
				}
			}
		})
		if loopErr != nil {
			return loopErr
		}
		if rep == nil {
			return fmt.Errorf("%s: benchmark ran zero iterations", sc.Name)
		}
		rec := distsimScenarioBench{
			benchResult: record("Conformance/"+sc.Name, r),
			Vertices:    rep.Vertices,
			Dilation:    rep.Dilation,
			Primitives:  rep.Primitives,
		}
		rec.Machines = rep.Machines
		report.Scenarios = append(report.Scenarios, rec)
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
