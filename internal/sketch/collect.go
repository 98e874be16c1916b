package sketch

import (
	"fmt"

	"clustercolor/internal/cluster"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
)

// CollectOptions configures Collect.
type CollectOptions struct {
	// IncludeSelf merges the vertex's own singleton row into its sketch.
	IncludeSelf bool
	// Pred filters which neighbors contribute to v's sketch; nil means all.
	// slot is the CSR position of the directed edge (v, u) — AdjOffset(v)+j
	// for the j-th neighbor — so callers can memoize per-edge predicates in
	// flat bitmaps instead of re-deriving them from the endpoints. Pred must
	// be safe for concurrent calls and must not depend on evaluation order.
	Pred func(v, u, slot int) bool
}

// Collect runs one aggregation wave of kernel k: out row v becomes the merge
// of the singleton rows of v's admitted neighbors. The fold runs as a
// parallel per-vertex CSR sweep; rows are disjoint and the kernel's merge is
// order-independent, so the output is byte-identical at any parallelism.
// The round cost is one H-round for the exchange plus the largest encoded
// payload that crossed a link, which is returned.
func Collect[C Cell](cg *cluster.CG, phase string, k Kernel[C], samples, out *Arena[C], opts CollectOptions) (int, error) {
	g := cg.H
	n := g.N()
	if samples.Rows() != n {
		return 0, fmt.Errorf("sketch: %d sample rows for %d vertices", samples.Rows(), n)
	}
	out.Reset(n, samples.Trials())
	cg.ChargeHRounds(phase, 1, 0) // payload charged below with true size
	maxBits, err := CollectRows(g, k, samples, out, opts, n, nil)
	if err != nil {
		return 0, err
	}
	cg.ChargeHRounds(phase+"/payload", 1, maxBits)
	return maxBits, nil
}

// CollectRows is the computational core of Collect: it folds the sample
// rows of each vertex's admitted neighbors into out rows [0, rows) over g
// and returns the largest encoded payload among those rows, without
// resetting the arena or charging the cost model. Partitioned callers (the
// shard engine) run it per slice — computing only the owned rows of a local
// CSR whose arena also carries halo rows — and charge the wave once
// globally. A non-nil pool bounds the fan-out to that shard's worker
// budget. Chunk bounds are degree-weighted from the CSR offsets array (plus
// a constant per row), so heavy vertices don't pile into straggler chunks;
// the fold itself is partition-independent (disjoint rows, max reduction),
// so the output is byte-identical at any parallelism and any budget split.
func CollectRows[C Cell](g *graph.Graph, k Kernel[C], samples, out *Arena[C], opts CollectOptions, rows int, pool *parwork.ShardPool) (int, error) {
	if rows > out.Rows() || rows > g.N() {
		return 0, fmt.Errorf("sketch: %d rows to collect exceeds %d out rows / %d vertices", rows, out.Rows(), g.N())
	}
	if samples.Rows() != g.N() {
		return 0, fmt.Errorf("sketch: %d sample rows for %d vertices", samples.Rows(), g.N())
	}
	if out.Trials() != samples.Trials() {
		return 0, fmt.Errorf("sketch: %d-cell out rows for %d-cell samples", out.Trials(), samples.Trials())
	}
	chunks := parwork.RangeChunks(rows)
	if pool != nil {
		chunks = parwork.RangeChunksAt(rows, pool.Workers())
	}
	cum := func(v int) int64 { return int64(g.AdjOffset(v)) + 16*int64(v) }
	chunkBits := make([]int, chunks)
	pm, hasPair := any(k).(PairMerger[C])
	fold := func(ci int) error {
		lo, hi := parwork.WeightedChunkBounds(rows, chunks, ci, cum)
		best := 1
		for v := lo; v < hi; v++ {
			row := out.Row(v)
			empty := true
			if opts.IncludeSelf {
				// Own samples merge locally; no network cost.
				copy(row, samples.Row(v))
				empty = false
			}
			base := g.AdjOffset(v)
			// Admitted neighbors fold two rows per pass when the kernel
			// supports it (held defers one source row until a partner
			// arrives); the result is identical by associativity, but the
			// paired pass keeps two scattered-row miss streams in flight.
			var held []C
			for j, u32 := range g.Neighbors(v) {
				u := int(u32)
				if opts.Pred != nil && !opts.Pred(v, u, base+j) {
					continue
				}
				if empty {
					copy(row, samples.Row(u))
					empty = false
					continue
				}
				if !hasPair {
					k.Merge(row, samples.Row(u))
					continue
				}
				if held == nil {
					held = samples.Row(u)
					continue
				}
				pm.MergePair(row, held, samples.Row(u))
				held = nil
			}
			if held != nil {
				k.Merge(row, held)
			}
			if empty {
				cell := k.EmptyCell()
				for i := range row {
					row[i] = cell
				}
			}
			if b := k.EncodedBits(row); b > best {
				best = b
			}
		}
		chunkBits[ci] = best
		return nil
	}
	var err error
	if pool != nil {
		err = pool.ForEach(chunks, fold)
	} else {
		_, err = parwork.ForEach(chunks, func(ci int) (struct{}, error) { return struct{}{}, fold(ci) })
	}
	if err != nil {
		return 0, err
	}
	// Max over fixed chunk bounds is grouping-independent: the largest
	// encoded row that would cross a link.
	maxBits := 1
	for _, b := range chunkBits {
		if b > maxBits {
			maxBits = b
		}
	}
	return maxBits, nil
}

// Engine is a sketch-engine handle: one kernel plus the sample and output
// arenas of its waves. Consumers that run repeated waves (the decomposition
// workspace, benchmarks) own an Engine so arena backings are reused across
// waves and allocation counts stay independent of n.
type Engine[C Cell] struct {
	Kernel  Kernel[C]
	Samples Arena[C]
	Out     Arena[C]
}

// NewEngine returns an engine running kernel k with empty arenas. The cell
// width cannot be inferred from a concrete kernel value, so call sites
// instantiate explicitly: NewEngine[int8](MaxKernel{}).
func NewEngine[C Cell](k Kernel[C]) *Engine[C] { return &Engine[C]{Kernel: k} }

// FillSamples resets the sample arena to n rows of width t and fills it from
// the kernel's per-row counter streams (see Arena.Fill).
func (e *Engine[C]) FillSamples(n, t int, seed uint64) error {
	e.Samples.Reset(n, t)
	return e.Samples.Fill(e.Kernel, seed)
}

// Collect runs one aggregation wave from the sample arena into the output
// arena (see Collect) and returns the peak encoded payload in bits.
func (e *Engine[C]) Collect(cg *cluster.CG, phase string, opts CollectOptions) (int, error) {
	return Collect(cg, phase, e.Kernel, &e.Samples, &e.Out, opts)
}

// Row returns output row v of the latest Collect. The view is valid until
// the next Collect or FillSamples with a larger shape.
func (e *Engine[C]) Row(v int) []C { return e.Out.Row(v) }
