// Package sketch is the mergeable-sketch engine behind every approximate
// count in the repo: flat arenas of fixed-width cell rows, a merge kernel
// whose fold is commutative, associative, and idempotent, the collect wave
// that folds neighbor rows over a cluster graph, an estimator that inverts a
// merged row back into a count, and Cutoff, which decides whether that count
// passes a threshold without inverting it.
//
// The shape is the one federated aggregation systems use for
// communication-efficient, order-independent state: because merging is a
// semilattice join, rows can be folded in any order, across any number of
// workers, over redundant paths, or shard by shard, and the result is
// byte-identical every time. The one kernel is the paper's Section 5
// fingerprint (per-trial geometric maxima, Lemma 5.2-style estimation, the
// Lemma 5.5–5.6 deviation encoding). internal/fingerprint keeps the paper's
// vocabulary on top of it (the sample draw and the trial budget), and the
// decomposition, Algorithm 7's fingerprint matching (which distsim's
// member leaders run too) and distsim's machine-level wave all merge
// through MergeMax8, so vertex-level and machine-level execution share one
// merge implementation.
//
// # Cell width
//
// Every row is int8. Cells hold maxima of geometric(1/2) samples — at most
// 64 (one machine word of trailing zeros) — under the MaxCell8 = 127
// saturation ceiling. Cells saturate at MaxCell8 (SaturateCell8): merging
// preserves the ceiling (max of in-range values stays in range) and the
// estimator clamps saturated values into its histogram, so a saturated row
// still obeys the merge laws and estimates to a documented finite value. One
// byte per cell keeps the collect wave, the per-edge merges, and the shard
// boundary exchange — the most-trafficked paths in the repo — at the least
// memory traffic. The Cell type parameter stays on the API only because
// callers such as the perfbench harness instantiate it (NewEngine[int8],
// MaxEstimator[int8], Scratch[int8]); it admits int8 alone.
//
// # Kernels, stride and alignment
//
// The row loops — MergeMax8, MergeMax8Pair and Cutoff's statistic — run
// AVX2 assembly on x86-64 CPUs that have it (32 cells per instruction,
// unaligned loads, chosen once at start-up from CPUID), and portable SWAR
// code (8 lanes per 64-bit word) on other CPUs, other architectures and in
// race builds, whose detector does not see memory accessed from assembly.
// The AVX2 kernels leave each row's last len%32 cells to the SWAR code.
//
// Only the SWAR path needs alignment: it takes a row 8 cells at a time
// when the row starts 8-byte aligned and falls back to a scalar loop
// otherwise. Arena rows are laid out at a stride padded up to a full 8-byte
// machine word (8 cells), so every arena row qualifies.
//
// Ownership contract: an Arena — and any Scratch — belongs to one wave at a
// time. Arena.Reset reuses the flat backing across waves; rows returned by
// Row alias the backing and are invalidated by the next Reset. Estimators
// and Scratches are owned by one goroutine; parallel folds give each chunk
// its own.
package sketch

// Cell is the sketch storage width: int8 (see the package doc's cell-width
// section).
type Cell interface {
	~int8
}

// Kernel defines one mergeable-sketch family over fixed-width []C rows.
// MaxKernel is its one implementation; the collect wave and the shard
// engine take the interface.
//
// Merge must be commutative, associative, and idempotent — a semilattice
// join — and a row of EmptyCell values must be its identity. Those four laws
// (checked by the conformance suite and FuzzSketchMerge) are what make every
// fold in this package order-independent and therefore byte-identical at any
// parallelism, immune to redundant-path double counting (the Section 1.1
// hazard), and safe to aggregate shard by shard.
//
// Kernels are stateless values: methods must be safe for concurrent use.
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
	// serialization.
	EncodedBits(row []C) int
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
