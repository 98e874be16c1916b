package core

import (
	"math/bits"
	"math/rand/v2"
	"sort"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/linial"
	"clustercolor/internal/parwork"
	"clustercolor/internal/trials"
)

// colorLowDegree is the Theorem 1.1 pipeline of Section 9 for
// Δ ≤ poly(log n):
//
//  1. DegreeReduction — O(log log n) TryColor waves over the full palette
//     (Section 9.2's use of Lemma D.3).
//  2. LearnColors — with Δ = O(polylog n), a cluster learns its palette by
//     aggregating an O(Δ)-bit bitmap, pipelined over ⌈Δ/bandwidth⌉ rounds
//     (Section 9.1).
//  3. Shattering — BEPS-style random palette trials until the uncolored
//     components are polylog-sized.
//  4. SmallInstanceColoring — the Lemma 9.1 contract: the shattered
//     components are deg+1-list-colored. The lemma invokes the Ghaffari–Kuhn
//     rounding; this implementation substitutes the finishing move of the
//     lemma's own proof: a Linial color reduction on the shattered subgraph,
//     then class-by-class recoloring from the learned lists. The substitute
//     needs the same inputs (the deg+1 lists and vertex IDs), and the round
//     charge follows the lemma's bound.
//
// Stages 1 and 3 run on one TryColor session: it reads the coloring once
// and keeps the shrinking frontier of uncolored vertices, so no stage
// rescans the coloring, and stage 4 starts from the frontier it leaves.
func colorLowDegree(cg *cluster.CG, col *coloring.Coloring, params Params, stats *Stats, rng *rand.Rand) error {
	h := cg.H
	n := h.N()
	if n == 0 {
		return nil
	}
	stats.StageOrder = append(stats.StageOrder, "DegreeReduction")
	loglog := bits.Len(uint(bits.Len(uint(n)))) + 2
	space := sparseSpace(col)
	// Stage 1: degree reduction, O(log log n) waves.
	s := trials.NewTryColorSession(cg, col, nil)
	reduce := trials.TryColorOptions{
		Phase:      "lowdeg/reduce",
		Space:      func(v int) []int32 { return space },
		Activation: 0.5,
	}
	for r := 0; r < 2*loglog && s.Left() > 0; r++ {
		if _, err := s.Round(reduce, rng); err != nil {
			return err
		}
	}
	stats.StageOrder = append(stats.StageOrder, "LearnColors")
	// Stage 2: palette learning — one aggregated Δ-bit bitmap per cluster.
	cg.ChargeHRounds("lowdeg/learn", 1, col.Delta()+1)
	stats.StageOrder = append(stats.StageOrder, "Shattering")
	// Stage 3: shattering — palette-restricted trials for O(log log n)
	// waves. After this, uncolored components are small w.h.p. Palettes go
	// through one reusable scratch; each is consumed before the next Space
	// call, per the scratch-ownership contract.
	scratch := coloring.NewPaletteScratch()
	shatter := trials.TryColorOptions{
		Phase:      "lowdeg/shatter",
		Activation: 0.7,
		Space: func(v int) []int32 {
			return scratch.Palette(h, col, v)
		},
	}
	for i := 0; i < 2*loglog; i++ {
		if s.Left() == 0 {
			return nil
		}
		if _, err := s.Round(shatter, rng); err != nil {
			return err
		}
	}
	// Stage 4: small-instance coloring per shattered component.
	stats.StageOrder = append(stats.StageOrder, "SmallInstanceColoring")
	return smallInstanceColoring(cg, col, s.Uncolored())
}

// smallInstanceColoring colors the uncolored subgraph left by shattering,
// following the Lemma 9.1 proof structure: a Linial color reduction on the
// shattered subgraph produces a proper O(Δ'²)-coloring of its (polylog-size)
// components in O(log* n) waves, and the color classes — independent sets —
// are then recolored one per round from the vertices' learned deg+1 lists.
// Rounds are charged per the lemma's budget; a vertex with an exhausted
// palette (impossible under deg+1 lists, guarded anyway) is left to the
// terminal fallback. left lists the uncolored vertices, ascending.
func smallInstanceColoring(cg *cluster.CG, col *coloring.Coloring, left []int32) error {
	h := cg.H
	if len(left) == 0 {
		return nil
	}
	uncolored := make([]int, len(left))
	for i, v := range left {
		uncolored[i] = int(v)
	}
	// Induced shattered subgraph; Linial runs on it against the same cost
	// model (the sub-instance lives on the same network).
	sub, orig := h.InducedSubgraph(uncolored)
	subCG, err := cluster.NewAbstract(sub, cg.G, cg.Dilation, cg.Cost())
	if err != nil {
		return err
	}
	linColors, linQ := linial.FromIDs(sub)
	linColors, linQ, err = linial.Run(subCG, linColors, linQ, "lowdeg/linial")
	if err != nil {
		return err
	}
	// Recolor one Linial class per round: classes are independent sets of
	// the shattered subgraph, and uncolored vertices of different
	// components are never adjacent, so simultaneous palette picks stay
	// proper.
	byClass := make([][]int, linQ)
	for i, c := range linColors {
		byClass[c] = append(byClass[c], orig[i])
	}
	// Each class is an independent set of the shattered subgraph, and its
	// members are pairwise non-adjacent in h too (all were uncolored, so an
	// h-edge would appear in the induced subgraph). Palette picks within a
	// class therefore never observe each other's writes: compute them in
	// parallel across the pool, apply sequentially in vertex order —
	// byte-identical to the serial loop.
	var choice []int32
	for c := linQ - 1; c >= 0; c-- {
		vs := byClass[c]
		if len(vs) == 0 {
			continue
		}
		cg.ChargeHRounds("lowdeg/small-instance", 1, 2*cg.IDBits())
		sort.Ints(vs)
		if cap(choice) < len(vs) {
			choice = make([]int32, len(vs))
		}
		choice = choice[:len(vs)]
		chunks := parwork.RangeChunks(len(vs))
		if _, err := parwork.ForEach(chunks, func(ci int) (struct{}, error) {
			lo, hi := parwork.ChunkBoundsIn(len(vs), chunks, ci)
			sc := coloring.NewPaletteScratch()
			for i := lo; i < hi; i++ {
				pal := sc.Palette(h, col, vs[i])
				if len(pal) == 0 {
					choice[i] = coloring.None // left to the terminal fallback
					continue
				}
				choice[i] = pal[0]
			}
			return struct{}{}, nil
		}); err != nil {
			return err
		}
		for i, v := range vs {
			if choice[i] == coloring.None {
				continue
			}
			if err := col.Set(v, choice[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
