package main

import (
	"fmt"
	"runtime"

	"clustercolor/internal/benchwork"
	"clustercolor/internal/experiments"
	"clustercolor/internal/sketch"
)

// sketchBenchReport is the BENCH_sketch.json schema: one collect-wave
// timing per workload and parallelism level, and the wire-size/accuracy
// profile of the estimator. It tracks the sketch engine the way
// BENCH_acd.json tracks the decomposition built on top of it. The isolated
// merge and estimate kernels are internal/sketch's own benchmarks.
type sketchBenchReport struct {
	Schema      string `json:"schema"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Parallelism int    `json:"parallelism"`
	Seed        uint64 `json:"seed"`
	MaxN        int    `json:"max_n,omitempty"`
	// GridLevels is the honest parallelism grid the wave sweep ran at;
	// DegradedGrid marks a report whose requested grid (1, 2, 4, NumCPU)
	// collapsed to a single effective level on the emitting box — its waves
	// measure no deliverable concurrency.
	GridLevels   []int                 `json:"grid_levels"`
	DegradedGrid bool                  `json:"degraded_grid,omitempty"`
	Waves        []sketchWaveResult    `json:"waves"`
	Estimators   []sketchEstimatorStat `json:"estimators"`
}

// sketchWaveResult is one collect-wave measurement: fill + parallel CSR fold
// at one parallelism level, with the instance shape and the peak encoded
// payload the wave charged.
type sketchWaveResult struct {
	benchResult
	Vertices   int `json:"vertices"`
	Trials     int `json:"trials"`
	SketchBits int `json:"sketch_bits"`
}

// sketchEstimatorStat profiles the estimator on one workload's wave output:
// mean encoded row size (bits/vertex) and mean relative error against exact
// degrees.
type sketchEstimatorStat struct {
	Workload      string  `json:"workload"`
	Kernel        string  `json:"kernel"`
	Estimator     string  `json:"estimator"`
	Width         int     `json:"width"`
	BitsPerVertex float64 `json:"bits_per_vertex"`
	MeanRelErr    float64 `json:"mean_rel_err"`
}

// emitSketchBench benchmarks the sketch engine over every workload with
// N ≤ maxN (maxN ≤ 0 = no cap) and writes the machine-readable report to
// path ("-" for stdout).
func emitSketchBench(path string, seed uint64, maxN int) error {
	return emitSketchBenchWorkloads(path, seed, maxN, benchwork.SketchWorkloads())
}

// emitSketchBenchWorkloads is emitSketchBench over an explicit workload
// list, so tests can exercise the emitter on small instances.
func emitSketchBenchWorkloads(path string, seed uint64, maxN int, workloads []benchwork.SketchWorkload) error {
	report := sketchBenchReport{
		Schema:      "clustercolor/bench-sketch/v1",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Parallelism: experiments.Parallelism(),
		Seed:        seed,
	}
	if maxN > 0 {
		report.MaxN = maxN
	}
	// Parallelism sweep: 1, 2, 4, NumCPU — deduplicated, sorted, and with
	// oversubscribed levels skipped (logged) so every wave row measures a
	// worker count the scheduler can deliver. A grid collapsed to one level
	// annotates the report header (or refuses under -require-full-grid).
	levels, degraded, err := parGrid("sketchbench", defaultCurveGrid()...)
	if err != nil {
		return err
	}
	report.GridLevels = levels
	report.DegradedGrid = degraded
	for _, w := range workloads {
		if maxN > 0 && w.N > maxN {
			continue
		}
		h, err := w.Build()
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		cg, err := benchwork.NewSketchInstance(h, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		trials, err := benchwork.SketchTrials(w.Xi, h.N())
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		eng := sketch.NewEngine[int8](sketch.MaxKernel{})
		// Representative run: capture the charged payload and warm the
		// arenas so allocs/op reflects the reuse steady state.
		maxBits, err := benchwork.RunSketchWave(cg, eng, trials, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		for _, par := range levels {
			prev := experiments.SetParallelism(par)
			res, err := measure(fmt.Sprintf("%s/p=%d", w.Name, par), func(i int) error {
				_, err := benchwork.RunSketchWave(cg, eng, trials, seed+uint64(i)+1)
				return err
			})
			experiments.SetParallelism(prev)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			rec := sketchWaveResult{
				benchResult: res,
				Vertices:    h.N(),
				Trials:      trials,
				SketchBits:  maxBits,
			}
			rec.Edges = h.M()
			rec.Parallelism = par
			rec.EffectiveParallelism = effectivePar(par)
			report.Waves = append(report.Waves, rec)
		}
		// Estimator profile: rerun the plain-neighborhood wave so the rows
		// match what the parallelism sweep's last iteration may have
		// overwritten, then sweep the estimator.
		if _, err := benchwork.RunSketchWave(cg, eng, trials, seed); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		var est sketch.MaxEstimator[int8]
		s := benchwork.SketchEstimatorStats(h, eng, &est)
		report.Estimators = append(report.Estimators, sketchEstimatorStat{
			Workload:      w.Name,
			Kernel:        eng.Kernel.Name(),
			Estimator:     est.Name(),
			Width:         trials,
			BitsPerVertex: s.BitsPerVertex,
			MeanRelErr:    s.MeanRelErr,
		})
	}
	return writeReport(path, report)
}
