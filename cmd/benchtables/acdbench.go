package main

import (
	"fmt"
	"runtime"

	"clustercolor/internal/acd"
	"clustercolor/internal/benchwork"
	"clustercolor/internal/experiments"
)

// acdBenchReport is the BENCH_acd.json schema: one record per decomposition
// workload with what the representative run found (dense/sparse/cabal
// counts), what it charged (rounds, peak sketch payload), and the timings.
// It tracks the perf trajectory of the fingerprint→ACD→profile stack, and
// CI gates its million-vertex row against BENCH_acd_baseline.json.
type acdBenchReport struct {
	Schema      string `json:"schema"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Parallelism int    `json:"parallelism"`
	Seed        uint64 `json:"seed"`
	MaxN        int    `json:"max_n,omitempty"`
	// GridLevels is the honest parallelism grid the speedup curves ran at;
	// DegradedGrid marks a report whose requested grid (1, 2, 4, NumCPU)
	// collapsed to a single effective level on the emitting box — its curves
	// measure no deliverable concurrency.
	GridLevels   []int            `json:"grid_levels"`
	DegradedGrid bool             `json:"degraded_grid,omitempty"`
	Benchmarks   []acdBenchResult `json:"benchmarks"`
	// Curves holds the per-stage speedup curves (decompose waves, profile
	// build, total) of every workload over GridLevels.
	Curves []speedupCurve `json:"curves"`
}

// acdBenchResult augments the shared timing record with the decomposition's
// outcome and cost: the instance shape, the peak deviation-encoded sketch
// payload in bits, the rounds charged, and the classification counts.
type acdBenchResult struct {
	benchResult
	Vertices   int   `json:"vertices"`
	Delta      int   `json:"delta"`
	SketchBits int   `json:"sketch_bits"`
	Rounds     int64 `json:"rounds"`
	Cliques    int   `json:"cliques"`
	Cabals     int   `json:"cabals"`
	Sparse     int   `json:"sparse"`
}

// emitACDBench benchmarks every decomposition workload with N ≤ maxN
// (maxN ≤ 0 = no cap) and writes the machine-readable report to path
// ("-" for stdout).
func emitACDBench(path string, seed uint64, maxN int) error {
	return emitACDBenchWorkloads(path, seed, maxN, benchwork.ACDWorkloads())
}

// emitACDBenchWorkloads is emitACDBench over an explicit workload list, so
// tests can exercise the emitter on small instances.
func emitACDBenchWorkloads(path string, seed uint64, maxN int, workloads []benchwork.ACDWorkload) error {
	levels, degraded, err := parGrid("acdbench", defaultCurveGrid()...)
	if err != nil {
		return err
	}
	report := acdBenchReport{
		Schema:       "clustercolor/bench-acd/v1",
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Parallelism:  experiments.Parallelism(),
		Seed:         seed,
		GridLevels:   levels,
		DegradedGrid: degraded,
	}
	if maxN > 0 {
		report.MaxN = maxN
	}
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
		// Representative run: collect the decomposition shape and cost
		// before timing (the workspace is warm for the benchmark loop, so
		// allocs/op reflects the arena-reuse steady state).
		roundsBefore := cg.Cost().Rounds()
		d, prof, err := benchwork.RunACDOnce(cg, w.Eps, seed, ws)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		rec := acdBenchResult{
			Vertices:   h.N(),
			Delta:      h.MaxDegree(),
			SketchBits: cg.Cost().MaxPayload(),
			Rounds:     cg.Cost().Rounds() - roundsBefore,
			Cliques:    len(d.Cliques),
			Sparse:     h.N(),
		}
		for _, cab := range prof.IsCabal {
			if cab {
				rec.Cabals++
			}
		}
		for v := 0; v < h.N(); v++ {
			if !d.IsSparse(v) {
				rec.Sparse--
			}
		}
		rec.benchResult, err = measure(w.Name, func(i int) error {
			_, _, err := benchwork.RunACDOnce(cg, w.Eps, seed+uint64(i)+1, ws)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		rec.Edges = h.M()
		report.Benchmarks = append(report.Benchmarks, rec)
		curves, err := acdCurves(w, cg, ws, seed, levels)
		if err != nil {
			return err
		}
		report.Curves = append(report.Curves, curves...)
	}
	return writeReport(path, report)
}
