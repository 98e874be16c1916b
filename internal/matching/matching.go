// Package matching computes colorful matchings in almost-cliques: sets of
// same-colored non-adjacent vertex pairs that create the reuse slack needed
// when a clique has more vertices than palette colors.
//
// Two regimes, as in the paper:
//
//   - Sampling (Lemma 4.9 / Algorithm 19, after [FGH+24]): when the average
//     anti-degree is Ω(log n), O(1/ε) rounds of random color trials produce
//     Ω(a_K/ε) repeated colors.
//
//   - FingerprintMatching (Section 6, Algorithm 7, Proposition 4.15): in the
//     densest cabals, anti-edges are found by locating trials whose unique
//     maximum fingerprint is invisible to some vertex's neighborhood — those
//     vertices are anti-neighbors of the maximum holder. A min-wise hash
//     samples one anti-neighbor per trial, and the discovered anti-edges
//     form a matching that is then colored with MultiColorTrial semantics.
package matching

import (
	"fmt"
	"math/rand/v2"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/prng"
	"clustercolor/internal/sketch"
	"clustercolor/internal/trials"
)

// SamplingOptions configures the Lemma 4.9 algorithm.
type SamplingOptions struct {
	Phase string
	// Members is the almost-clique K.
	Members []int
	// ReservedMax: matched pairs never use colors 1..ReservedMax.
	ReservedMax int32
	// Rounds is the number of sampling rounds (paper: O(1/ε); default 8).
	Rounds int
	// TargetRepeats stops early once this many repeated colors exist
	// (0 = run all rounds).
	TargetRepeats int
}

// Sampling runs the random-trial colorful matching. It returns M_K, the
// number of repeated-color units created (each unit is one extra vertex on
// an already-used matching color). Only vertices that provide reuse slack
// are colored (Lemma 4.9's guarantee).
func Sampling(cg *cluster.CG, col *coloring.Coloring, opts SamplingOptions, rng *rand.Rand) (int, error) {
	if len(opts.Members) == 0 {
		return 0, fmt.Errorf("matching: empty clique")
	}
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 8
	}
	if opts.ReservedMax >= col.MaxColor() {
		return 0, fmt.Errorf("matching: reserved prefix %d leaves no colors", opts.ReservedMax)
	}
	// One O(log n)-bit gather round before the trials: resolving a round's
	// groups is a radius-2 computation inside K (a member's acceptance can
	// hinge on an anti-neighbor it only hears through a common neighbor).
	// The distsim conformance harness measured the machine-level protocol at
	// one H-round more than announce+respond alone; this charge keeps the
	// cost model honest about it.
	cg.ChargeHRounds(opts.Phase+"/gather", 1, 2*cg.IDBits())
	repeats := 0
	for r := 0; r < rounds; r++ {
		if opts.TargetRepeats > 0 && repeats >= opts.TargetRepeats {
			break
		}
		// Each uncolored member samples one non-reserved color: one
		// O(log Δ)-bit announce round plus one response round.
		cg.ChargeHRounds(opts.Phase+"/announce", 1, 2*cg.IDBits())
		cg.ChargeHRounds(opts.Phase+"/respond", 1, 2*cg.IDBits())
		byColor := make(map[int32][]int)
		for _, v := range opts.Members {
			if col.IsColored(v) {
				continue
			}
			c := opts.ReservedMax + 1 + int32(rng.IntN(int(col.MaxColor()-opts.ReservedMax)))
			byColor[c] = append(byColor[c], v)
		}
		for c, cands := range byColor {
			// Keep candidates whose neighbors don't already use c.
			var ok []int
			for _, v := range cands {
				if coloring.Available(cg.H, col, v, c) {
					ok = append(ok, v)
				}
			}
			// Greedy independent subset among the candidates (anti-edge
			// groups): same-colored members must be pairwise non-adjacent.
			var group []int
			for _, v := range ok {
				indep := true
				for _, u := range group {
					if cg.H.HasEdge(v, u) {
						indep = false
						break
					}
				}
				if indep {
					group = append(group, v)
				}
			}
			if len(group) < 2 {
				continue // coloring a lone vertex provides no reuse slack
			}
			for _, v := range group {
				if err := col.Set(v, c); err != nil {
					return repeats, fmt.Errorf("matching: sampling adopt: %w", err)
				}
			}
			repeats += len(group) - 1
		}
	}
	return repeats, nil
}

// FingerprintOptions configures Algorithm 7.
type FingerprintOptions struct {
	Phase string
	// Members is the cabal K.
	Members []int
	// Trials is k (paper: Θ(log n / (ετ)); default 6·log₂ n scaled by the
	// caller).
	Trials int
	// TargetPairs stops the scan once this many matched anti-edges exist
	// (0 = use all trials).
	TargetPairs int
}

// FingerprintMatching runs Algorithm 7 and returns the matched anti-edges
// (u_i, w_i): vertex-disjoint non-adjacent pairs inside K.
func FingerprintMatching(cg *cluster.CG, opts FingerprintOptions, rng *rand.Rand) ([][2]int, error) {
	k := opts.Trials
	if k <= 0 {
		return nil, fmt.Errorf("matching: trial count %d must be positive", k)
	}
	members := opts.Members
	if len(members) < 2 {
		return nil, fmt.Errorf("matching: cabal of size %d too small", len(members))
	}
	// pos maps each member to its position, which indexes its rows.
	pos := make(map[int]int, len(members))
	for i, v := range members {
		if _, dup := pos[v]; dup {
			return nil, fmt.Errorf("matching: vertex %d listed twice in the cabal", v)
		}
		pos[v] = i
	}
	// Step 2: fingerprints of N(v) ∩ K and of K. One aggregation wave;
	// deviation-encoded payloads (Lemma 5.6) charged below.
	var samples, yV sketch.Arena[int8]
	samples.Reset(len(members), k)
	for i := range members {
		fingerprint.Draw(samples.Row(i), rng)
	}
	yK := emptyRow(make([]int8, k))
	for i := range members {
		sketch.MergeMax8(yK, samples.Row(i))
	}
	var sc sketch.Scratch[int8]
	maxBits := sc.EncodedBits(yK)
	yV.Reset(len(members), k)
	for i, v := range members {
		s := emptyRow(yV.Row(i))
		for _, u := range cg.H.Neighbors(v) {
			if j, ok := pos[int(u)]; ok {
				sketch.MergeMax8(s, samples.Row(j))
			}
		}
		if b := sc.EncodedBits(s); b > maxBits {
			maxBits = b
		}
	}
	cg.ChargeHRounds(opts.Phase+"/fingerprints", 1, maxBits)
	// Step 3: local identifiers via BFS enumeration — O(1) rounds.
	cg.ChargeHRounds(opts.Phase+"/enumerate", 2, 2*cg.IDBits())
	// Step 4: per-trial screening by O(k)-bit aggregated bitmaps.
	cg.ChargeHRounds(opts.Phase+"/screen", 1, k+8)
	uniqueMaxCount := make(map[int]int)
	type trial struct {
		u    int   // unique maximum holder
		anti []int // A_i: detected anti-neighbors of u
	}
	var kept []trial
	for i := 0; i < k; i++ {
		// Unique maximum?
		maxVal := yK[i]
		var holder, count int
		for j, v := range members {
			if samples.Row(j)[i] == maxVal {
				holder = v
				count++
				if count > 1 {
					break
				}
			}
		}
		if count != 1 {
			continue
		}
		uniqueMaxCount[holder]++
		if uniqueMaxCount[holder] > 1 {
			continue // third condition of Step 4
		}
		// Anti-neighbors: Y_v_i ≠ Y_K_i (excluding the holder itself).
		var anti []int
		for j, v := range members {
			if v != holder && yV.Row(j)[i] != maxVal {
				anti = append(anti, v)
			}
		}
		if len(anti) == 0 {
			continue // second condition: some non-edge must be visible
		}
		kept = append(kept, trial{u: holder, anti: anti})
	}
	// Steps 5–9: random groups relay; each trial samples one anti-neighbor
	// with a min-wise hash. Group communication is O(1) rounds with
	// O(log n)-bit hash seeds.
	cg.ChargeHRounds(opts.Phase+"/minwise", 3, 2*cg.IDBits())
	type pick struct{ u, w int }
	var picks []pick
	for _, tr := range kept {
		h, err := prng.NewMinWiseHash(cg.H.N(), 0.5, rng)
		if err != nil {
			return nil, err
		}
		w := h.ArgMin(tr.anti)
		if w < 0 {
			continue
		}
		picks = append(picks, pick{u: tr.u, w: w})
	}
	// Step 10: discard trials whose unique maximum was sampled as an
	// anti-neighbor elsewhere.
	sampledAsW := make(map[int]bool)
	for _, p := range picks {
		sampledAsW[p.w] = true
	}
	// Step 11: each w keeps one trial.
	usedW := make(map[int]bool)
	var pairs [][2]int
	for _, p := range picks {
		if sampledAsW[p.u] {
			continue
		}
		if usedW[p.w] {
			continue
		}
		usedW[p.w] = true
		pairs = append(pairs, [2]int{p.u, p.w})
		if opts.TargetPairs > 0 && len(pairs) >= opts.TargetPairs {
			break
		}
	}
	// Structural invariant check: pairs are anti-edges and vertex-disjoint.
	seen := make(map[int]bool)
	for _, p := range pairs {
		if cg.H.HasEdge(p[0], p[1]) {
			return nil, fmt.Errorf("matching: pair {%d,%d} is an edge, not an anti-edge", p[0], p[1])
		}
		if seen[p[0]] || seen[p[1]] {
			return nil, fmt.Errorf("matching: pair {%d,%d} reuses a matched vertex", p[0], p[1])
		}
		seen[p[0]] = true
		seen[p[1]] = true
	}
	return pairs, nil
}

// ColorPairs colors each matched anti-edge with a shared non-reserved color
// (Algorithm 6 Steps 2–3): the pair behaves as one MultiColorTrial vertex
// whose palette is the intersection of its endpoints' palettes. Returns the
// number of pairs colored.
func ColorPairs(cg *cluster.CG, col *coloring.Coloring, pairs [][2]int, reservedMax int32, phase string, rng *rand.Rand) (int, error) {
	if reservedMax >= col.MaxColor() {
		return 0, fmt.Errorf("matching: reserved prefix %d leaves no colors", reservedMax)
	}
	space := trials.RangeSpace(reservedMax+1, col.MaxColor())
	colored := 0
	// Pairs behave like super-vertices; O(1) TryColor rounds followed by
	// exhaustive fallback keep this at O(log* n) shape while guaranteeing
	// termination at laptop scale.
	const maxRounds = 40
	done := make([]bool, len(pairs))
	for r := 0; r < maxRounds && colored < len(pairs); r++ {
		cg.ChargeHRounds(phase+"/try", 2, 2*cg.IDBits())
		tried := make(map[int]int32, len(pairs)) // pair index → color
		for i, p := range pairs {
			if done[i] {
				continue
			}
			c := space[rng.IntN(len(space))]
			if coloring.Available(cg.H, col, p[0], c) && coloring.Available(cg.H, col, p[1], c) {
				tried[i] = c
			}
		}
		for i, p := range pairs {
			c, ok := tried[i]
			if !ok {
				continue
			}
			conflict := false
			for j, q := range pairs {
				cj, trying := tried[j]
				if !trying || j >= i || cj != c {
					continue
				}
				// An earlier pair trying the same color blocks i if they
				// touch or are adjacent.
				if adjacentPairs(cg, p, q) {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			if err := col.Set(p[0], c); err != nil {
				return colored, err
			}
			if err := col.Set(p[1], c); err != nil {
				return colored, err
			}
			done[i] = true
			colored++
		}
	}
	return colored, nil
}

// emptyRow fills row with the max kernel's identity and returns it.
func emptyRow(row []int8) []int8 {
	for i := range row {
		row[i] = sketch.Empty
	}
	return row
}

func adjacentPairs(cg *cluster.CG, p, q [2]int) bool {
	for _, a := range p {
		for _, b := range q {
			if a == b || cg.H.HasEdge(a, b) {
				return true
			}
		}
	}
	return false
}
