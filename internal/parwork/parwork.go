// Package parwork holds the process-wide worker machinery shared by every
// embarrassingly-parallel loop in the repo: experiment row loops, the
// battery runner, and the per-clique stage loops of the coloring pipeline.
// One knob (SetParallelism, surfaced to users via experiments.SetParallelism
// and benchtables -parallel) governs them all, and every loop derives its
// per-item randomness from a seed and the item index only, so emitted
// tables and colorings are byte-identical at every parallelism level.
package parwork

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the worker count used by ForEach. It defaults to the
// machine's CPU count.
var parallelism atomic.Int64

func init() {
	parallelism.Store(int64(runtime.GOMAXPROCS(0)))
}

// SetParallelism sets how many goroutines ForEach fans out across; n < 1
// selects 1 (sequential). It returns the previous value.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	return int(parallelism.Swap(int64(n)))
}

// Parallelism returns the current worker count.
func Parallelism() int { return int(parallelism.Load()) }

// ForEach computes f(i) for every i in [0, n) across min(Parallelism(), n)
// goroutines and returns the results in index order. Workers pull indices
// from a shared counter, so uneven item costs balance out. If any f returns
// an error, the first error observed wins (any error aborts the whole loop
// and discards the outputs, so which one is reported doesn't affect results)
// and workers stop pulling new indices. The error path is the only one that
// allocates beyond the output slice: the happy path stays O(workers), not
// O(n). f must derive all of its randomness from its index (see RowSeed) and
// must not write shared state, or the byte-identical-at-any-parallelism
// contract breaks.
func ForEach[T any](n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	p := Parallelism()
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			v, err := f(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var firstErr atomic.Pointer[error]
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for firstErr.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := f(i)
				if err != nil {
					// Copy before taking the address: &err directly would
					// make err escape and cost one heap allocation per
					// iteration on the happy path too.
					e := err
					firstErr.CompareAndSwap(nil, &e)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}
	return out, nil
}

// Grain rule for ForRange-style loops. minRangeChunks is the historical
// fixed grain: enough chunks that the shared-counter scheduler balances
// uneven chunk costs at small worker counts, few enough that per-chunk
// scratch stays O(1) in n. chunksPerWorker scales the count up once the
// worker budget grows past minRangeChunks/chunksPerWorker, so tail chunks
// cannot straggle a wide machine; maxRangeChunks caps per-chunk scratch and
// chunk-level reduction arrays at a constant whatever the budget.
const (
	minRangeChunks  = 128
	chunksPerWorker = 8
	maxRangeChunks  = 2048
)

// RangeChunksAt returns the chunk count a ForRange-style loop splits [0, n)
// into at worker budget p: min(n, clamp(chunksPerWorker*p, 128, 2048)). It is
// a pure function of (n, p) — same inputs, same grain, on every box. The
// determinism contract for outputs does not rest on the grain at all: every
// chunk-level reduction in the repo is partition-independent (disjoint index
// writes, bitmap ORs, min/max/OR folds), so colorings, decompositions, and
// sketches are byte-identical at any chunk count. The grain only moves
// wall-clock and scratch constants.
func RangeChunksAt(n, p int) int {
	if p < 1 {
		p = 1
	}
	c := chunksPerWorker * p
	if c < minRangeChunks {
		c = minRangeChunks
	}
	if c > maxRangeChunks {
		c = maxRangeChunks
	}
	if n < c {
		c = n
	}
	return c
}

// RangeChunks returns RangeChunksAt(n, Parallelism()): the grain for the
// current process-wide budget. Callers must capture the result once and pass
// it to ChunkBoundsIn for every chunk of the same loop — re-deriving it
// per-chunk could tear if the parallelism knob moves mid-loop.
func RangeChunks(n int) int {
	return RangeChunksAt(n, Parallelism())
}

// ChunkBoundsIn returns the half-open bounds of chunk i when [0, n) is split
// into chunks contiguous near-even pieces. Pure in (n, chunks, i).
func ChunkBoundsIn(n, chunks, i int) (lo, hi int) {
	return i * n / chunks, (i + 1) * n / chunks
}

// WeightedChunkBounds returns the half-open bounds of chunk i when [0, n) is
// split into chunks contiguous pieces that equalize cumulative weight rather
// than item count. cum(v) must be the nondecreasing cumulative weight of
// items [0, v), defined for v in [0, n]; for a CSR degree sweep that is the
// offsets array plus a small constant per item (so zero-degree runs still
// split). Bounds are a pure function of (n, chunks, cum) — computed from the
// offsets array only, never from timing — so they are as deterministic as
// the even split. Cost is O(log n) per boundary.
func WeightedChunkBounds(n, chunks, i int, cum func(v int) int64) (lo, hi int) {
	base := cum(0)
	total := cum(n) - base
	if total <= 0 {
		return ChunkBoundsIn(n, chunks, i)
	}
	return weightedBoundary(n, chunks, i, base, total, cum),
		weightedBoundary(n, chunks, i+1, base, total, cum)
}

// weightedBoundary finds the smallest v with cum(v)-cum(0) ≥ i*total/chunks,
// clamped so boundary(0) = 0 and boundary(chunks) = n. Boundaries are
// nondecreasing in i, so the chunks partition [0, n) exactly (some possibly
// empty when one item carries more than a chunk's share of weight).
func weightedBoundary(n, chunks, i int, base, total int64, cum func(v int) int64) int {
	if i <= 0 {
		return 0
	}
	if i >= chunks {
		return n
	}
	target := base + int64(i)*total/int64(chunks)
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum(mid) >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ForRange runs f over the RangeChunks(n) contiguous chunks covering [0, n),
// fanned across the worker pool. f owns [lo, hi) exclusively, so it may keep
// per-call scratch and write disjoint output indices without synchronization;
// like ForEach, it must derive any randomness from the indices alone.
func ForRange(n int, f func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	chunks := RangeChunks(n)
	_, err := ForEach(chunks, func(i int) (struct{}, error) {
		lo, hi := ChunkBoundsIn(n, chunks, i)
		return struct{}{}, f(lo, hi)
	})
	return err
}

// StreamRNG returns the canonical PRNG stream for a derived seed. Every
// consumer of a RowSeed-derived stream — the per-clique stage loops, the
// distsim member leaders, and the pipeline itself — must construct
// its generator through this one helper: byte-identical replay depends on
// all of them using the same derivation.
func StreamRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x6c62272e07bb0142))
}

// RowSeed derives an independent PRNG seed for item i of a loop from the
// loop's seed (a splitmix64 step), so items can run concurrently and in any
// order while the merged output stays identical to a sequential run.
func RowSeed(seed uint64, i int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}
