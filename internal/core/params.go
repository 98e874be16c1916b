// Package core assembles the full (Δ+1)-coloring algorithm of the paper on
// top of the substrate packages: the high-degree pipeline of Theorem 1.2
// (Algorithms 3–5 and 11) and the low-degree pipeline of Theorem 1.1
// (Section 9: degree reduction, shattering, small-instance coloring).
//
// The paper's constants (ε = 1/2000, ℓ = Θ(log^1.1 n), Δ_low = Θ(log²¹ n),
// r_K = 250·max{ẽ_K, ℓ}) are asymptotic; Params exposes them with
// laptop-scale defaults. Every stage keeps its paper semantics, and a
// bounded fallback loop guarantees a proper total coloring at any scale;
// fallback activity is counted separately in Stats so experiments can report
// how far the stage logic alone carried.
package core

import (
	"fmt"
	"math"
	"time"
)

// Params are the tunable constants of the algorithm.
type Params struct {
	// Eps is the almost-clique decomposition parameter (paper: 1/2000;
	// default 0.25 — small graphs need a permissive ε to find any dense
	// structure).
	Eps float64
	// EllFactor scales the cabal threshold ℓ = EllFactor·log^1.1 n
	// (paper: Θ(1) with a large constant; default 1.0).
	EllFactor float64
	// ReservedFactor scales r_K = ReservedFactor·max{ẽ_K, ℓ} (paper: 250;
	// default 1.0 — 250 exceeds Δ at any testable size).
	ReservedFactor float64
	// ReservedCapFrac caps reserved colors at this fraction of Δ+1
	// (paper's 300εΔ with ε = 1/2000 is 0.15Δ; default 0.2).
	ReservedCapFrac float64
	// SlackActivation is p_g for slack generation (paper: 1/200; default
	// 0.1 so small graphs generate measurable slack).
	SlackActivation float64
	// InlierExtFactor is the ẽ_v ≤ c·ẽ_K inlier condition (paper: 20).
	InlierExtFactor float64
	// DeltaLow is the Δ threshold below which the low-degree pipeline of
	// Theorem 1.1 runs (paper: Θ(log²¹ n); default 4·log₂ n scaled).
	// Zero means "choose from n".
	DeltaLow int
	// MatchingTrialFactor scales the fingerprint-matching trial count
	// k = factor·log₂ n (paper: 6C/(ετ); default 10).
	MatchingTrialFactor int
	// MaxFallbackRounds bounds the terminal cleanup loop (default 200).
	MaxFallbackRounds int
	// Shards is the number of contiguous vertex slices the decomposition
	// stage partitions the graph into (internal/shard), each running its
	// own sketch arenas and worker-pool share, stitched by boundary-exchange
	// phases. 0 or 1 runs one slice that shares the graph's memory and
	// exchanges nothing. The coloring, decomposition, and charged rounds are
	// byte-identical at every count; only the execution layout (and the
	// cross-shard traffic reported in Stats) changes.
	Shards int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultParams returns laptop-scale defaults for an n-vertex instance.
func DefaultParams(n int) Params {
	return Params{
		Eps:                 0.25,
		EllFactor:           1.0,
		ReservedFactor:      1.0,
		ReservedCapFrac:     0.2,
		SlackActivation:     0.1,
		InlierExtFactor:     20,
		DeltaLow:            0,
		MatchingTrialFactor: 10,
		MaxFallbackRounds:   200,
		Seed:                1,
	}
}

// IsZero reports whether p is the zero value. A zero Params never validates
// (Eps must be positive), so callers use IsZero as the explicit "unset —
// substitute DefaultParams" signal rather than comparing structs inline.
func (p Params) IsZero() bool { return p == (Params{}) }

// Validate checks parameter sanity. Each range is written as a negated
// in-range test, so NaN — which fails every comparison — is rejected too.
func (p Params) Validate() error {
	if !(p.Eps > 0 && p.Eps < 1.0/3) {
		return fmt.Errorf("core: Eps %v out of (0, 1/3)", p.Eps)
	}
	if !(p.ReservedCapFrac > 0 && p.ReservedCapFrac < 1) {
		return fmt.Errorf("core: ReservedCapFrac %v out of (0,1)", p.ReservedCapFrac)
	}
	if !(p.EllFactor > 0 && p.EllFactor <= math.MaxFloat64) {
		return fmt.Errorf("core: EllFactor %v must be positive and finite", p.EllFactor)
	}
	if !(p.ReservedFactor > 0 && p.ReservedFactor <= math.MaxFloat64) {
		return fmt.Errorf("core: ReservedFactor %v must be positive and finite", p.ReservedFactor)
	}
	if !(p.SlackActivation > 0 && p.SlackActivation <= 1) {
		return fmt.Errorf("core: SlackActivation %v out of (0,1]", p.SlackActivation)
	}
	if !(p.InlierExtFactor >= 1 && p.InlierExtFactor <= math.MaxFloat64) {
		return fmt.Errorf("core: InlierExtFactor %v must be finite and >= 1", p.InlierExtFactor)
	}
	if p.MatchingTrialFactor < 1 {
		return fmt.Errorf("core: MatchingTrialFactor %v must be >= 1", p.MatchingTrialFactor)
	}
	if p.MaxFallbackRounds < 1 {
		return fmt.Errorf("core: MaxFallbackRounds %v must be >= 1", p.MaxFallbackRounds)
	}
	if p.Shards < 0 {
		return fmt.Errorf("core: Shards %v must be >= 0", p.Shards)
	}
	return nil
}

// Ell returns the cabal threshold ℓ = EllFactor·(log₂ n)^1.1 for an n-vertex
// instance.
func (p Params) Ell(n int) float64 {
	if n < 2 {
		n = 2
	}
	lg := math.Log2(float64(n))
	return p.EllFactor * math.Pow(lg, 1.1)
}

// DeltaLowThreshold returns the low/high-degree boundary: explicit DeltaLow
// when set, otherwise 4·log₂ n — the scaled stand-in for Θ(log²¹ n); the
// high-degree stages only need Δ ≫ log n headroom at simulation scale.
func (p Params) DeltaLowThreshold(n int) int {
	if p.DeltaLow > 0 {
		return p.DeltaLow
	}
	if n < 2 {
		n = 2
	}
	return int(4 * math.Log2(float64(n)))
}

// Stats reports what a run did and what it cost.
type Stats struct {
	// Path is "high-degree" or "low-degree".
	Path string
	// StageOrder traces the executed stages in order (the Figure 5 flow).
	StageOrder []string
	// Rounds is the total G-rounds charged by the cost model, including
	// fallback.
	Rounds int64
	// FallbackRounds is the subset of rounds spent in the terminal
	// cleanup loop (0 = the stage logic finished everything itself).
	FallbackRounds int64
	// DecompRounds is the subset of rounds spent in the almost-clique
	// decomposition stage (ComputeACD + profile building), charged
	// separately so experiments can attribute decomposition cost.
	DecompRounds int64
	// PhaseRounds breaks rounds down by phase label.
	PhaseRounds map[string]int64
	// MaxPayloadBits is the largest single-message payload charged.
	MaxPayloadBits int
	// Dilation is the support-tree height of the instance.
	Dilation int
	// Delta is Δ of the input.
	Delta int
	// NumCliques, NumCabals, NumSparse describe the decomposition.
	NumCliques int
	NumCabals  int
	NumSparse  int
	// SparseColored .. PutAsideStats track per-stage coloring volume. The
	// matching/put-aside counters are measured against each clique's
	// snapshot run; see ParallelDroppedWrites.
	SparseColored    int
	NonCabalColored  int
	CabalColored     int
	MatchingRepeats  int
	PutAsideDonated  int
	PutAsideFree     int
	PutAsideFallback int
	FallbackColored  int
	// ParallelDroppedWrites counts proposals the parallel per-clique stage
	// loops dropped at apply time (cross-clique collisions against the
	// shared snapshot). When positive, the per-stage counters above can
	// overstate the applied effect by at most this amount; the dropped
	// vertices are recovered by later stages or the terminal fallback.
	ParallelDroppedWrites int
	// Shards echoes Params.Shards when the decomposition ran on more than
	// one slice (0 otherwise); ShardExchangedRows/Bits are the sketch
	// rows shipped across shard boundaries and their deviation-encoded
	// size. Exchange traffic is an execution-layout cost, not a cluster
	// round charge — Rounds is identical with and without sharding.
	Shards             int
	ShardExchangedRows int64
	ShardExchangedBits int64
	// StageNs accrues wall-clock nanoseconds per pipeline stage ("decompose",
	// "slackgen", "sparse", "matchings", "scts", "palettes", "donate",
	// "lowdegree", "fallback", ...). Stages that run more than once (the
	// matching and SCT stages run for non-cabals and cabals) accumulate.
	// Wall time is an execution measurement for the speedup-curve emitters —
	// it feeds no algorithmic decision, so colorings stay byte-identical
	// whatever the clock says.
	StageNs map[string]int64
}

// AddStageNs accrues d under StageNs[stage], allocating the map on first use.
func (s *Stats) AddStageNs(stage string, d time.Duration) {
	if s.StageNs == nil {
		s.StageNs = make(map[string]int64)
	}
	s.StageNs[stage] += int64(d)
}
