// Package sketch is the generic mergeable-sketch engine behind the
// decomposition's approximate counting: flat arenas of fixed-width cell
// rows, a pluggable merge kernel whose fold is commutative, associative, and
// idempotent, estimators that invert a merged row back into a count, and
// Cutoff, which decides whether that count passes a threshold without
// inverting it.
//
// The shape is the one federated aggregation systems use for
// communication-efficient, order-independent state: because merging is a
// semilattice join, rows can be folded in any order, across any number of
// workers, over redundant paths, or shard by shard, and the result is
// byte-identical every time. The paper's Section 5 fingerprint machinery
// (per-trial geometric maxima, Lemma 5.2-style estimation) is the first
// kernel; a k-min-values kernel provides the classic alternative trade-off
// between row width and wire size. internal/fingerprint remains the
// paper-semantics adapter over this package, and the machine-level distsim
// replays route their merges through the same kernels, so vertex-level and
// machine-level execution share one merge implementation.
//
// # Cell-width contract
//
// Arenas, kernels, and estimators are generic over the Cell storage width.
// Each kernel picks the narrowest width its value range needs:
//
//   - MaxKernel stores int8 cells. Its values are maxima of geometric(1/2)
//     samples — at most 64 (one machine word of trailing zeros), far below
//     the MaxCell8 = 127 saturation ceiling. Cells saturate at MaxCell8
//     (SaturateCell8): merging preserves the ceiling (max of in-range values
//     stays in range) and the estimator clamps saturated values into its
//     histogram, so a saturated row still obeys the merge laws and estimates
//     to a documented finite value. Halving bytes per row halves the memory
//     traffic of the collect wave, the per-edge merges, and the shard
//     boundary exchange — the single most-trafficked path in the repo.
//   - KMVKernel keeps int16 cells: its values are 15-bit hashes and the
//     kmvSentinel is MaxInt16, which genuinely need the width.
//
// Cell width is storage only: estimator inputs, the deviation encoding, and
// therefore every charged payload (`sketch_bits`) are value-based and
// byte-identical whichever width stores the same values.
//
// # Stride and alignment
//
// Arena rows are laid out at a stride padded up to a full 8-byte machine
// word (8 cells for int8, 4 for int16), so every row starts 8-byte aligned —
// the precondition of the SWAR merge kernels (MergeMax8 moves 8 lanes per
// word, MergeMax 4). Rows obtained elsewhere fall back to the scalar tail.
//
// Ownership contract (moved here from internal/fingerprint): an Arena — and
// any Scratch — belongs to one wave at a time. Arena.Reset reuses the flat
// backing across waves; rows returned by Row alias the backing and are
// invalidated by the next Reset. Estimators and Scratches are owned by one
// goroutine; parallel folds give each chunk its own.
package sketch

// Cell is the constraint over sketch storage widths: kernels declare the
// narrowest integer type that holds their value range (see the cell-width
// contract in the package doc).
type Cell interface {
	~int8 | ~int16
}

// Kernel defines one mergeable-sketch family over fixed-width []C rows.
//
// Merge must be commutative, associative, and idempotent — a semilattice
// join — and a row of EmptyCell values must be its identity. Those four laws
// (checked by the conformance suite and FuzzSketchMerge) are what make every
// fold in this package order-independent and therefore byte-identical at any
// parallelism, immune to redundant-path double counting (the Section 1.1
// hazard), and safe to aggregate shard by shard.
//
// Kernels are stateless values: methods must be safe for concurrent use, and
// any per-call scratch is passed in by the caller.
type Kernel[C Cell] interface {
	// Name identifies the kernel in benchmarks and reports.
	Name() string
	// EmptyCell is the identity cell value: a row filled with it merges as
	// a no-op ("no elements seen").
	EmptyCell() C
	// Fill writes one party's singleton sketch into row, deriving all
	// randomness from rowSeed's counter stream (parwork.RowSeed) so the row
	// is a pure function of (rowSeed, width).
	Fill(row []C, rowSeed uint64)
	// Merge folds src into dst (dst = dst ⊔ src). Lengths must match; rows
	// must not partially overlap (dst == src is allowed and is a no-op by
	// idempotence).
	Merge(dst, src []C)
	// EncodedBits returns the wire size of row under the kernel's
	// serialization, using *counts as reusable scratch (grown as needed).
	EncodedBits(row []C, counts *[]int) int
}

// PairMerger is an optional kernel fast path: MergePair folds two source
// rows into dst in one pass (dst = dst ⊔ a ⊔ b), exactly equal to two
// sequential Merge calls by associativity. The collect wave's fold is bound
// by the memory latency of fetching scattered sample rows, so a kernel that
// can keep two source streams in flight roughly halves the stall per cell;
// kernels without it are folded one source at a time.
type PairMerger[C Cell] interface {
	MergePair(dst, a, b []C)
}

// Estimator inverts a merged row into an approximate count of the distinct
// parties folded into it. Implementations carry reusable scratch and are
// owned by one goroutine; the zero value is ready to use.
type Estimator[C Cell] interface {
	// Name identifies the estimator variant in benchmarks and reports.
	Name() string
	// Estimate returns d̂ for the row (0 when no party was seen).
	Estimate(row []C) float64
}
