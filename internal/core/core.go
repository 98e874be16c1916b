package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"clustercolor/internal/acd"
	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
	"clustercolor/internal/trials"
)

// Color runs the full (Δ+1)-coloring algorithm on a cluster graph, choosing
// the high-degree pipeline (Theorem 1.2) or the low-degree pipeline
// (Theorem 1.1) by the Δ_low threshold. It returns a verified total proper
// coloring together with run statistics.
func Color(cg *cluster.CG, params Params) (*coloring.Coloring, *Stats, error) {
	return ColorTraced(cg, params, nil)
}

// ColorTraced is Color with a stage tracer: tr (when non-nil) observes every
// parallel per-clique stage of the high-degree pipeline — its snapshot,
// tasks, seeds, charged rounds, and snapshot-relative writes. The distsim
// conformance harness uses it to re-execute each primitive at machine
// granularity; a nil tracer makes ColorTraced identical to Color.
func ColorTraced(cg *cluster.CG, params Params, tr StageTracer) (*coloring.Coloring, *Stats, error) {
	if err := params.Validate(); err != nil {
		return nil, nil, err
	}
	h := cg.H
	delta := h.MaxDegree()
	col := coloring.New(h.N(), delta)
	stats := &Stats{Delta: delta, Dilation: cg.Dilation}
	rng := parwork.StreamRNG(params.Seed)
	baseline := cg.Cost().Rounds()

	var err error
	if delta <= params.DeltaLowThreshold(h.N()) {
		stats.Path = "low-degree"
		start := time.Now()
		err = colorLowDegree(cg, col, params, stats, rng)
		stats.AddStageNs("lowdegree", time.Since(start))
	} else {
		stats.Path = "high-degree"
		err = colorHighDegree(cg, col, params, stats, rng, tr)
	}
	if err != nil {
		return nil, nil, err
	}
	// Terminal cleanup: whatever probabilistic stages left behind at
	// finite scale is finished by palette-exact random trials, counted
	// separately so experiments can report stage-only behaviour.
	fbStart := cg.Cost().Rounds()
	fbWall := time.Now()
	fbErr := fallbackFinish(cg, col, params, stats, rng)
	stats.AddStageNs("fallback", time.Since(fbWall))
	stats.FallbackRounds = cg.Cost().Rounds() - fbStart
	stats.Rounds = cg.Cost().Rounds() - baseline
	stats.PhaseRounds = cg.Cost().PhaseRounds()
	stats.MaxPayloadBits = cg.Cost().MaxPayload()
	if fbErr != nil {
		// No partial coloring escapes, but the stats (including the rounds
		// charged by the exhausted fallback loop) do, so callers and tests
		// can see what the failed run paid.
		return nil, stats, fbErr
	}
	if err := coloring.VerifyComplete(h, col); err != nil {
		return nil, nil, fmt.Errorf("core: output verification: %w", err)
	}
	return col, stats, nil
}

// fallbackFinish colors any remaining vertices with TryColor over their true
// palettes, on one session. Computing a true palette in a cluster graph
// costs Ω(Δ/log n) rounds (Figure 2); the loop charges that price per wave.
// Palettes are materialized through one reusable scratch (zero per-vertex
// allocation); the session consumes each palette before the next Space
// call, per the scratch-ownership contract.
func fallbackFinish(cg *cluster.CG, col *coloring.Coloring, params Params, stats *Stats, rng *rand.Rand) error {
	h := cg.H
	if uncoloredCount(col) == 0 {
		return nil
	}
	bw := cg.Cost().Bandwidth()
	paletteHops := (col.Delta() + bw - 1) / bw
	if paletteHops < 1 {
		paletteHops = 1
	}
	scratch := coloring.NewPaletteScratch()
	opts := trials.TryColorOptions{
		Phase:      "fallback/try",
		Activation: 0.8,
		Space: func(v int) []int32 {
			return scratch.Palette(h, col, v)
		},
	}
	s := trials.NewTryColorSession(cg, col, nil)
	for round := 0; round < params.MaxFallbackRounds && s.Left() > 0; round++ {
		cg.ChargeHRounds("fallback/palette", paletteHops, bw)
		colored, err := s.Round(opts, rng)
		if err != nil {
			return err
		}
		stats.FallbackColored += colored
	}
	if s.Left() > 0 {
		return fmt.Errorf("core: %d vertices uncolored after %d fallback rounds", s.Left(), params.MaxFallbackRounds)
	}
	return nil
}

func uncoloredCount(col *coloring.Coloring) int {
	return col.N() - col.DomSize()
}

// reservedFor returns r_K for a clique given its estimated average external
// degree (Equation 2, scaled): ReservedFactor·max{ẽ_K, ℓ} capped at
// ReservedCapFrac·(Δ+1) and floored at 1.
func (p Params) reservedFor(avgExt, ell float64, delta int) int32 {
	r := p.ReservedFactor * math.Max(avgExt, ell)
	cap := p.ReservedCapFrac * float64(delta+1)
	if r > cap {
		r = cap
	}
	if r < 1 {
		r = 1
	}
	return int32(r)
}

// decompose runs ComputeACD and profile building as one traced,
// separately-charged stage: both waves run on one shard engine over
// params.Shards slices — one slice, aliasing cg.H, when unsharded — and
// share one acd.Workspace, so arenas and slices are reused across Compute
// and BuildProfile. The rounds they charge are recorded in
// Stats.DecompRounds, a partitioned run's cross-shard traffic lands in
// Stats, and a non-nil tracer observes the stage as a "decompose"
// StageTrace (vertex-level — no per-clique tasks or snapshot; the
// fingerprint-wave primitive covers its machine-level conformance).
func decompose(cg *cluster.CG, params Params, stats *Stats, rng *rand.Rand, tr StageTracer) (*acd.Decomposition, *acd.Profile, error) {
	before := cg.Cost().Rounds()
	wall := time.Now()
	defer func() { stats.AddStageNs("decompose", time.Since(wall)) }()
	sg, err := graph.NewShardedGraph(cg.H, max(params.Shards, 1))
	if err != nil {
		return nil, nil, err
	}
	se := shard.NewEngine(sg, sketch.MaxKernel{})
	// A partitioned run reports its cross-shard traffic after the profile
	// wave. Reading it through xs rather than se leaves an unsharded run
	// with no reference to the engine once the profile has read its
	// estimates, so the arenas can be collected during the tree stage.
	var xs *shard.ExchangeStats
	if sg.NumShards() > 1 {
		xs = &se.Stats
	}
	ws := acd.NewWorkspace()
	d, err := acd.ComputeShardedWith(cg, se, params.Eps, rng, ws)
	if err != nil {
		return nil, nil, err
	}
	prof, err := acd.BuildProfileShardedWith(cg, se, d, float64(cg.H.MaxDegree()), params.Ell(cg.H.N()), rng, ws)
	if err != nil {
		return nil, nil, err
	}
	if xs != nil {
		stats.Shards = params.Shards
		stats.ShardExchangedRows = xs.Rows
		stats.ShardExchangedBits = xs.Bits
		stats.AddStageNs("exchange", time.Duration(xs.ExchangeNs))
	}
	stats.DecompRounds = cg.Cost().Rounds() - before
	stats.NumCliques = len(d.Cliques)
	for _, cab := range prof.IsCabal {
		if cab {
			stats.NumCabals++
		}
	}
	for v := 0; v < cg.H.N(); v++ {
		if d.IsSparse(v) {
			stats.NumSparse++
		}
	}
	if tr != nil {
		tr(&StageTrace{Stage: "decompose", ChargedRounds: stats.DecompRounds})
	}
	return d, prof, nil
}

// sparseSpace returns the full color space [1, Δ+1] used by sparse vertices.
func sparseSpace(col *coloring.Coloring) []int32 {
	return trials.RangeSpace(1, col.MaxColor())
}

// rangeView returns the color range [lo, hi] as a view into the full space
// slice (full[i] == i+1), so per-vertex Space closures never allocate.
func rangeView(full []int32, lo, hi int32) []int32 {
	if lo < 1 {
		lo = 1
	}
	if hi > int32(len(full)) {
		hi = int32(len(full))
	}
	if hi < lo {
		return nil
	}
	return full[lo-1 : hi]
}
