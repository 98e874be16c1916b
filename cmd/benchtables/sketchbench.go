package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"clustercolor/internal/benchwork"
	"clustercolor/internal/core"
	"clustercolor/internal/experiments"
	"clustercolor/internal/parwork"
	"clustercolor/internal/sketch"
)

// sketchBenchReport is the BENCH_sketch.json schema: the isolated merge
// kernels (the dispatching max — AVX2 where the CPU has it, SWAR
// otherwise — against its scalar reference, the
// paired fold, and the fused and materialized union estimates), one
// collect-wave timing per workload and parallelism level, and the
// wire-size/accuracy profile of the estimator. It tracks the sketch engine
// the way BENCH_acd.json tracks the decomposition built on top of it.
type sketchBenchReport struct {
	Schema      string `json:"schema"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Parallelism int    `json:"parallelism"`
	Seed        uint64 `json:"seed"`
	MaxN        int    `json:"max_n,omitempty"`
	// GridLevels is the honest parallelism grid the wave sweep ran at;
	// DegradedGrid marks a report whose requested grid (1, 2, 4, NumCPU)
	// collapsed to a single effective level on the emitting box — its waves
	// and curves measure no deliverable concurrency.
	GridLevels   []int              `json:"grid_levels"`
	DegradedGrid bool               `json:"degraded_grid,omitempty"`
	Kernels      []benchResult      `json:"kernels"`
	Waves        []sketchWaveResult `json:"waves"`
	// Curves re-expresses the wave sweep as one collect speedup curve per
	// workload (same rows as BENCH_speedup.json, scoped to this mode).
	Curves     []speedupCurve        `json:"curves"`
	Estimators []sketchEstimatorStat `json:"estimators"`
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

// mergeBench times one merge function on arena-aligned max-kernel rows.
func mergeBench(width int, merge func(dst, src []int8)) testing.BenchmarkResult {
	var a sketch.Arena[int8]
	a.Reset(2, width)
	sketch.MaxKernel{}.Fill(a.Row(0), parwork.RowSeed(1, 0))
	sketch.MaxKernel{}.Fill(a.Row(1), parwork.RowSeed(1, 1))
	dst, src := a.Row(0), a.Row(1)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(2 * width))
		for i := 0; i < b.N; i++ {
			merge(dst, src)
		}
	})
}

// mergePairBench times the paired fold (dst = dst ⊔ a ⊔ b) the collect wave
// uses to keep two source-row miss streams in flight.
func mergePairBench(width int) testing.BenchmarkResult {
	var a sketch.Arena[int8]
	a.Reset(3, width)
	k := sketch.MaxKernel{}
	for i := 0; i < 3; i++ {
		k.Fill(a.Row(i), parwork.RowSeed(1, i))
	}
	dst, x, y := a.Row(0), a.Row(1), a.Row(2)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(3 * width))
		for i := 0; i < b.N; i++ {
			sketch.MergeMax8Pair(dst, x, y)
		}
	})
}

// benchSink keeps estimator results observable so the benched calls cannot be
// dead-code eliminated.
var benchSink float64

// estimateMergedBench times estimating the union of two max-kernel rows:
// fused (EstimateMerged) or through a materialized scratch merge — the
// per-edge baseline the fused kernel replaced in the buddy predicate.
func estimateMergedBench(width int, fused bool) testing.BenchmarkResult {
	var a sketch.Arena[int8]
	a.Reset(2, width)
	sketch.MaxKernel{}.Fill(a.Row(0), parwork.RowSeed(1, 0))
	sketch.MaxKernel{}.Fill(a.Row(1), parwork.RowSeed(1, 1))
	x, y := a.Row(0), a.Row(1)
	var sc sketch.Scratch[int8]
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fused {
				benchSink += sc.Est.EstimateMerged(x, y)
			} else {
				benchSink += sc.Est.Estimate(sc.MergeTwo(x, y))
			}
		}
	})
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
	// Isolated merge kernels at the row width the decomposition actually
	// runs at n = 10⁵: the predicate's doubled accuracy ξ/2 = ε/4 at the
	// default ε = 0.25 gives t = 1604 — the kernel/scalar ratio is the
	// kernel's whole reason to exist, so both sides go in the report.
	const kernelN = 100_000
	t0, err := benchwork.SketchTrials(core.DefaultParams(kernelN).Eps/4, kernelN)
	if err != nil {
		return err
	}
	report.Kernels = append(report.Kernels,
		record(fmt.Sprintf("MergeMax8/t=%d", t0), mergeBench(t0, sketch.MergeMax8)),
		record(fmt.Sprintf("MergeMax8Generic/t=%d", t0), mergeBench(t0, sketch.MergeMax8Generic)),
		record(fmt.Sprintf("MergeMax8Pair/t=%d", t0), mergePairBench(t0)),
		record(fmt.Sprintf("EstimateMerged/t=%d", t0), estimateMergedBench(t0, true)),
		record(fmt.Sprintf("EstimateMergeTwo/t=%d", t0), estimateMergedBench(t0, false)),
	)
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
		waveNs := make([]float64, len(levels))
		for li, par := range levels {
			prev := experiments.SetParallelism(par)
			var loopErr error
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := benchwork.RunSketchWave(cg, eng, trials, seed+uint64(i)+1); err != nil {
						loopErr = fmt.Errorf("%s: %w", w.Name, err)
						b.Fatal(err)
					}
				}
			})
			experiments.SetParallelism(prev)
			if loopErr != nil {
				return loopErr
			}
			rec := sketchWaveResult{
				benchResult: record(fmt.Sprintf("%s/p=%d", w.Name, par), r),
				Vertices:    h.N(),
				Trials:      trials,
				SketchBits:  maxBits,
			}
			rec.Edges = h.M()
			rec.Parallelism = par
			rec.EffectiveParallelism = effectivePar(par)
			waveNs[li] = rec.NsPerOp
			report.Waves = append(report.Waves, rec)
		}
		report.Curves = append(report.Curves, curveFromNs(w.Name, "collect", levels, waveNs))
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
