package benchwork

import (
	"math"

	"clustercolor/internal/cluster"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
	"clustercolor/internal/sketch"
)

// SketchWorkload is one sketch-engine benchmark case: an instance builder
// plus the accuracy ξ the wave runs with. The same workloads back the
// benchtables -sketchbench emitter, so BENCH_sketch.json records the engine
// on the instance shapes the decomposition benchmarks already use.
type SketchWorkload struct {
	// Name is the benchmark-style identifier (slashes group sub-cases).
	Name string
	// N is the vertex count.
	N int
	// Xi is the wave accuracy (fixes the max-kernel trial count).
	Xi float64
	// Build constructs the instance (once per workload; waves are what the
	// benchmark times).
	Build func() (*graph.Graph, error)
}

// SketchWorkloads returns the sketch-engine benchmark matrix: GNP deg≈64 at
// two sizes, so the collect wave's O(n + m·t/P) scaling shows directly.
func SketchWorkloads() []SketchWorkload {
	gnp := func(n int) SketchWorkload {
		return SketchWorkload{
			Name: graphGenName("Sketch/GNP", n, "deg=64"),
			N:    n,
			Xi:   0.125,
			Build: func() (*graph.Graph, error) {
				return graph.GNP(n, 64/float64(n), graph.NewRand(uint64(n)+5))
			},
		}
	}
	return []SketchWorkload{gnp(50_000), gnp(400_000)}
}

// NewSketchInstance builds the wave benchmark fixture for h: singleton
// clusters with the default Θ(log n) bandwidth, the same shape the
// decomposition benchmarks run on.
func NewSketchInstance(h *graph.Graph, seed uint64) (*cluster.CG, error) {
	return NewACDInstance(h, seed)
}

// SketchTrials returns the max-kernel trial count for accuracy xi on n
// vertices (Lemma 5.2 via fingerprint.TrialsFor).
func SketchTrials(xi float64, n int) (int, error) {
	return fingerprint.TrialsFor(xi, n)
}

// RunSketchWave executes one engine wave — per-row sample fill plus the
// parallel CSR collect — and returns the peak encoded payload in bits. The
// engine's arenas are reused across calls, so steady-state allocations are
// independent of n.
func RunSketchWave(cg *cluster.CG, eng *sketch.Engine[int8], t int, seed uint64) (int, error) {
	if err := eng.FillSamples(cg.H.N(), t, parwork.RowSeed(seed, 0)); err != nil {
		return 0, err
	}
	return eng.Collect(cg, "bench/sketch", sketch.CollectOptions{})
}

// EstimatorStats aggregates the estimator over the engine's latest wave:
// the mean encoded row size and the mean relative error of the estimates
// against the exact neighborhood sizes.
type EstimatorStats struct {
	// BitsPerVertex is the mean encoded row size in bits.
	BitsPerVertex float64
	// MeanRelErr is the mean of |d̂ − deg(v)|/deg(v) over vertices with
	// deg(v) > 0.
	MeanRelErr float64
}

// SketchEstimatorStats sweeps the latest wave's output rows with est. The
// wave must have collected plain neighborhoods (no predicate, no self), so
// deg(v) is the exact count each estimate targets.
func SketchEstimatorStats(h *graph.Graph, eng *sketch.Engine[int8], est *sketch.MaxEstimator[int8]) EstimatorStats {
	n := h.N()
	var bits, errSum float64
	counted := 0
	var counts []int
	for v := 0; v < n; v++ {
		row := eng.Row(v)
		bits += float64(eng.Kernel.EncodedBits(row, &counts))
		d := float64(h.Degree(v))
		if d == 0 {
			continue
		}
		errSum += math.Abs(est.Estimate(row)-d) / d
		counted++
	}
	stats := EstimatorStats{}
	if n > 0 {
		stats.BitsPerVertex = bits / float64(n)
	}
	if counted > 0 {
		stats.MeanRelErr = errSum / float64(counted)
	}
	return stats
}
