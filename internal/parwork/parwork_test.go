package parwork_test

import (
	"errors"
	"runtime"
	"testing"

	"clustercolor/internal/parwork"
)

// TestRangeChunksAtPure pins the grain rule as a pure function of (n, p):
// min(n, clamp(chunksPerWorker·p, 128, 2048)), unaffected by the process-wide
// parallelism knob. The old API derived the grain inside per-chunk bounds
// lookups, which could tear when the knob moved mid-loop; purity here is what
// lets callers capture the chunk count once.
func TestRangeChunksAtPure(t *testing.T) {
	cases := []struct{ n, p, want int }{
		{0, 1, 0},
		{50, 1, 50},     // n below the floor: one chunk per item
		{1000, 1, 128},  // small budgets keep the historical fixed grain
		{1000, 16, 128}, // 8·16 = 128: the boundary of the fixed grain
		{1000, 17, 136}, // grain starts scaling with the budget
		{100000, 32, 256},
		{100000, 1000, 2048}, // cap: scratch stays O(1) whatever the budget
		{100000, 0, 128},     // p < 1 clamps to 1
		{200, 1000, 200},     // n caps the count
		{2048, 1000, 2048},   // exactly at the cap
		{1 << 20, 256, 2048}, // 8·256 = 2048: at the cap from below
		{1 << 20, 257, 2048}, // and clamped above it
	}
	for _, c := range cases {
		if got := parwork.RangeChunksAt(c.n, c.p); got != c.want {
			t.Errorf("RangeChunksAt(%d, %d) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	// Purity against the knob: RangeChunksAt must not read Parallelism().
	prev := parwork.SetParallelism(1)
	at1 := parwork.RangeChunksAt(100000, 32)
	parwork.SetParallelism(64)
	at64 := parwork.RangeChunksAt(100000, 32)
	parwork.SetParallelism(prev)
	if at1 != at64 {
		t.Fatalf("RangeChunksAt reads the parallelism knob: %d vs %d", at1, at64)
	}
	// RangeChunks is the knob-bound instance of the same rule.
	prev = parwork.SetParallelism(32)
	defer parwork.SetParallelism(prev)
	if got, want := parwork.RangeChunks(100000), parwork.RangeChunksAt(100000, 32); got != want {
		t.Fatalf("RangeChunks(100000) = %d, want RangeChunksAt(100000, 32) = %d", got, want)
	}
}

// TestChunkBoundsInPartition checks that ChunkBoundsIn tiles [0, n) exactly:
// contiguous, nondecreasing, first chunk at 0, last at n.
func TestChunkBoundsInPartition(t *testing.T) {
	for _, n := range []int{1, 7, 128, 1000, 65536} {
		for _, chunks := range []int{1, 2, 128, 1000} {
			if chunks > n {
				chunks = n
			}
			prevHi := 0
			for i := 0; i < chunks; i++ {
				lo, hi := parwork.ChunkBoundsIn(n, chunks, i)
				if lo != prevHi {
					t.Fatalf("n=%d chunks=%d: chunk %d starts at %d, previous ended at %d", n, chunks, i, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("n=%d chunks=%d: chunk %d inverted [%d, %d)", n, chunks, i, lo, hi)
				}
				prevHi = hi
			}
			if prevHi != n {
				t.Fatalf("n=%d chunks=%d: last chunk ends at %d", n, chunks, prevHi)
			}
		}
	}
}

// TestWeightedChunkBoundsPartition checks the degree-weighted splitter on a
// skewed weight profile: the chunks still tile [0, n) exactly, boundaries are
// nondecreasing, and no chunk carries more than a chunk's fair share of
// weight plus one item's worth (the granularity limit of contiguous splits).
func TestWeightedChunkBoundsPartition(t *testing.T) {
	const n = 4096
	// CSR-like cumulative weights: mostly degree 2, a handful of hubs, plus
	// the constant per-item term that keeps zero-degree runs splittable.
	deg := make([]int64, n)
	for v := range deg {
		deg[v] = 2
	}
	deg[0] = 50_000
	deg[n/2] = 30_000
	for v := n - 64; v < n; v++ {
		deg[v] = 0 // zero-degree tail must still be divided
	}
	off := make([]int64, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	cum := func(v int) int64 { return off[v] + 16*int64(v) }
	for _, chunks := range []int{1, 2, 13, 128, 512} {
		total := cum(n) - cum(0)
		fair := total/int64(chunks) + (50_000 + 16) // fair share + heaviest item
		prevHi := 0
		for i := 0; i < chunks; i++ {
			lo, hi := parwork.WeightedChunkBounds(n, chunks, i, cum)
			if lo != prevHi {
				t.Fatalf("chunks=%d: chunk %d starts at %d, previous ended at %d", chunks, i, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("chunks=%d: chunk %d inverted [%d, %d)", chunks, i, lo, hi)
			}
			if w := cum(hi) - cum(lo); w > fair {
				t.Fatalf("chunks=%d: chunk %d carries weight %d, over fair share %d", chunks, i, w, fair)
			}
			prevHi = hi
		}
		if prevHi != n {
			t.Fatalf("chunks=%d: last chunk ends at %d, want %d", chunks, prevHi, n)
		}
	}
	// Zero total weight falls back to the even split.
	zero := func(v int) int64 { return 7 }
	lo, hi := parwork.WeightedChunkBounds(100, 4, 1, zero)
	wlo, whi := parwork.ChunkBoundsIn(100, 4, 1)
	if lo != wlo || hi != whi {
		t.Fatalf("zero-weight bounds [%d, %d), want even split [%d, %d)", lo, hi, wlo, whi)
	}
}

// TestForEachErrorSlotAllocs is the regression test for the first-error slot:
// an error-free parallel ForEach must not allocate O(n) for error reporting
// (the old implementation preallocated an errs []error of length n). The
// byte budget below is far under 8·n, so reintroducing the slice fails it.
func TestForEachErrorSlotAllocs(t *testing.T) {
	prev := parwork.SetParallelism(4)
	defer parwork.SetParallelism(prev)
	const n = 1 << 17 // 8·n = 1 MiB if an errs slice came back
	warm := func() {
		if _, err := parwork.ForEach(n, func(i int) (struct{}, error) {
			return struct{}{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	best := ^uint64(0)
	for trial := 0; trial < 5; trial++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		warm()
		runtime.ReadMemStats(&m1)
		if b := m1.TotalAlloc - m0.TotalAlloc; b < best {
			best = b
		}
	}
	if best >= 8*n {
		t.Fatalf("error-free ForEach(n=%d) allocates %d bytes — error reporting must be a single atomic slot, not an O(n) slice", n, best)
	}
}

// TestForEachStillReportsError checks the slot still surfaces an injected
// error from the parallel path, and that the loop remains usable afterwards.
func TestForEachStillReportsError(t *testing.T) {
	prev := parwork.SetParallelism(4)
	defer parwork.SetParallelism(prev)
	boom := errors.New("boom")
	_, err := parwork.ForEach(10_000, func(i int) (int, error) {
		if i >= 5_000 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the injected error", err)
	}
	out, err := parwork.ForEach(100, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 100 || out[99] != 99 {
		t.Fatalf("ForEach unusable after an error drain: %v %d", err, len(out))
	}
}
