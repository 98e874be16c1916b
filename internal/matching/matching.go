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
//
// Both run on one almost-clique's coloring.CliqueView: they address members
// by index, read member colors, member adjacency and the colors held by
// non-member neighbours through the view, and write only the view's
// colors. The vertex-level pipeline and internal/distsim's member leaders
// fill the view differently and call the same code.
package matching

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"clustercolor/internal/coloring"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/prng"
	"clustercolor/internal/sketch"
)

// SamplingOptions configures the Lemma 4.9 algorithm.
type SamplingOptions struct {
	Phase string
	// ReservedMax: matched pairs never use colors 1..ReservedMax.
	ReservedMax int32
	// Rounds is the number of sampling rounds (paper: O(1/ε); default 8).
	Rounds int
	// TargetRepeats stops early once this many repeated colors exist
	// (0 = run all rounds).
	TargetRepeats int
}

// Sampling runs the random-trial colorful matching on the clique of v. It
// returns M_K, the number of repeated-color units created (each unit is one
// extra vertex on an already-used matching color). Only vertices that
// provide reuse slack are colored (Lemma 4.9's guarantee).
//
// In each round every uncolored member draws one non-reserved color, and
// each color class — the members that drew it — is resolved on its own:
// its members that may take the color form a greedy independent group in
// member order, and a group of two or more adopts it. A counting sort lays
// the classes out in one bucket array, walked in ascending color order, so
// a round allocates nothing. The order cannot change the outcome: a member
// draws exactly one color per round, and a class's outcome depends only on
// the members holding its own color, which no other class of the round
// writes.
func Sampling(v *coloring.CliqueView, opts SamplingOptions, rng *rand.Rand) (int, error) {
	k := len(v.Members)
	if k == 0 {
		return 0, fmt.Errorf("matching: empty clique")
	}
	rounds := opts.Rounds
	if rounds <= 0 {
		rounds = 8
	}
	if opts.ReservedMax >= v.MaxColor {
		return 0, fmt.Errorf("matching: reserved prefix %d leaves no colors", opts.ReservedMax)
	}
	// One O(log n)-bit gather round before the trials: resolving a round's
	// groups is a radius-2 computation inside K (a member's acceptance can
	// hinge on an anti-neighbor it only hears through a common neighbor).
	// The distsim conformance harness measured the machine-level protocol at
	// one H-round more than announce+respond alone; this charge keeps the
	// cost model honest about it.
	v.Charge(opts.Phase, "/gather", 1, 2*v.IDBits())
	span := int(v.MaxColor - opts.ReservedMax)
	// Class d holds the members that drew color ReservedMax+1+d. A round
	// counts class d in next[d+1]; the prefix sum makes next[d] the class's
	// first slot in order, and placing the class's members advances it.
	// drew[i] is member i's draw this round (None when it was colored).
	next := make([]int32, span+1)
	drew := make([]int32, k)
	order := make([]int32, k)
	group := make([]int, 0, k)
	repeats := 0
	for r := 0; r < rounds; r++ {
		if opts.TargetRepeats > 0 && repeats >= opts.TargetRepeats {
			break
		}
		// Each uncolored member samples one non-reserved color: one
		// O(log Δ)-bit announce round plus one response round.
		v.Charge(opts.Phase, "/announce", 1, 2*v.IDBits())
		v.Charge(opts.Phase, "/respond", 1, 2*v.IDBits())
		clear(next)
		drawn := 0
		for i, c := range v.Colors {
			drew[i] = coloring.None
			if c != coloring.None {
				continue
			}
			d := rng.IntN(span)
			drew[i] = opts.ReservedMax + 1 + int32(d)
			next[d+1]++
			drawn++
		}
		for d := 1; d < span; d++ {
			next[d] += next[d-1]
		}
		for i, c := range drew {
			if c != coloring.None {
				d := c - opts.ReservedMax - 1
				order[next[d]] = int32(i)
				next[d]++
			}
		}
		for lo := 0; lo < drawn; {
			c := drew[order[lo]]
			hi := lo + 1
			for hi < drawn && drew[order[hi]] == c {
				hi++
			}
			// The class's members that may take c, greedily kept pairwise
			// non-adjacent: same-colored members must be an anti-clique.
			group = group[:0]
			for _, i := range order[lo:hi] {
				if !v.Available(int(i), c) {
					continue
				}
				indep := true
				for _, j := range group {
					if v.HasEdge(int(i), j) {
						indep = false
						break
					}
				}
				if indep {
					group = append(group, int(i))
				}
			}
			lo = hi
			if len(group) < 2 {
				continue // coloring a lone vertex provides no reuse slack
			}
			for _, i := range group {
				v.Colors[i] = c
			}
			repeats += len(group) - 1
		}
	}
	return repeats, nil
}

// FingerprintOptions configures Algorithm 7.
type FingerprintOptions struct {
	Phase string
	// Members is the cabal K as indices into the view's members (for
	// example its uncolored ones).
	Members []int
	// Trials is k (paper: Θ(log n / (ετ)); default 6·log₂ n scaled by the
	// caller).
	Trials int
	// TargetPairs stops the scan once this many matched anti-edges exist
	// (0 = use all trials).
	TargetPairs int
}

// FingerprintMatching runs Algorithm 7 and returns the matched anti-edges
// (u_i, w_i) as member indices of v: disjoint non-adjacent pairs inside K.
func FingerprintMatching(v *coloring.CliqueView, opts FingerprintOptions, rng *rand.Rand) ([][2]int, error) {
	k := opts.Trials
	if k <= 0 {
		return nil, fmt.Errorf("matching: trial count %d must be positive", k)
	}
	in := opts.Members
	if len(in) < 2 {
		return nil, fmt.Errorf("matching: cabal of size %d too small", len(in))
	}
	// pos maps each member to its position in the cabal, which indexes its
	// rows (-1 outside the cabal).
	pos := make([]int32, len(v.Members))
	for i := range pos {
		pos[i] = -1
	}
	for a, i := range in {
		if i < 0 || i >= len(pos) {
			return nil, fmt.Errorf("matching: member %d outside the clique of %d", i, len(pos))
		}
		if pos[i] >= 0 {
			return nil, fmt.Errorf("matching: member %d listed twice in the cabal", i)
		}
		pos[i] = int32(a)
	}
	// Step 2: fingerprints of N(v) ∩ K and of K. One aggregation wave;
	// deviation-encoded payloads (Lemma 5.6) charged below.
	var samples, yV sketch.Arena[int8]
	samples.Reset(len(in), k)
	for a := range in {
		fingerprint.Draw(samples.Row(a), rng)
	}
	yK := emptyRow(make([]int8, k))
	for a := range in {
		sketch.MergeMax8(yK, samples.Row(a))
	}
	var sc sketch.Scratch[int8]
	maxBits := sc.EncodedBits(yK)
	yV.Reset(len(in), k)
	var nbrs []int
	for a, i := range in {
		s := emptyRow(yV.Row(a))
		nbrs = v.AppendNeighbors(nbrs[:0], i)
		for _, j := range nbrs {
			if b := pos[j]; b >= 0 {
				sketch.MergeMax8(s, samples.Row(int(b)))
			}
		}
		if b := sc.EncodedBits(s); b > maxBits {
			maxBits = b
		}
	}
	v.Charge(opts.Phase, "/fingerprints", 1, maxBits)
	// Step 3: local identifiers via BFS enumeration — O(1) rounds.
	v.Charge(opts.Phase, "/enumerate", 2, 2*v.IDBits())
	// Step 4: per-trial screening by O(k)-bit aggregated bitmaps.
	v.Charge(opts.Phase, "/screen", 1, k+8)
	uniqueMaxCount := make([]int, len(in))
	type trial struct {
		u    int   // unique maximum holder
		anti []int // A_i: detected anti-neighbors of u
	}
	var kept []trial
	for t := 0; t < k; t++ {
		// Unique maximum?
		maxVal := yK[t]
		var holder, count int
		for a := range in {
			if samples.Row(a)[t] == maxVal {
				holder = a
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
		for a, i := range in {
			if a != holder && yV.Row(a)[t] != maxVal {
				anti = append(anti, i)
			}
		}
		if len(anti) == 0 {
			continue // second condition: some non-edge must be visible
		}
		kept = append(kept, trial{u: in[holder], anti: anti})
	}
	// Steps 5–9: random groups relay; each trial samples one anti-neighbor
	// with a min-wise hash over vertex ids. Group communication is O(1)
	// rounds with O(log n)-bit hash seeds.
	v.Charge(opts.Phase, "/minwise", 3, 2*v.IDBits())
	type pick struct{ u, w int }
	var picks []pick
	ids := make([]int, 0, len(in))
	for _, tr := range kept {
		h, err := prng.NewMinWiseHash(v.N, 0.5, rng)
		if err != nil {
			return nil, err
		}
		ids = ids[:0]
		for _, i := range tr.anti {
			ids = append(ids, v.Members[i])
		}
		if w := h.ArgMin(ids); w >= 0 {
			picks = append(picks, pick{u: tr.u, w: tr.anti[slices.Index(ids, w)]})
		}
	}
	// Step 10: discard trials whose unique maximum was sampled as an
	// anti-neighbor elsewhere.
	sampledAsW := make([]bool, len(v.Members))
	for _, p := range picks {
		sampledAsW[p.w] = true
	}
	// Step 11: each w keeps one trial.
	usedW := make([]bool, len(v.Members))
	var pairs [][2]int
	for _, p := range picks {
		if sampledAsW[p.u] || usedW[p.w] {
			continue
		}
		usedW[p.w] = true
		pairs = append(pairs, [2]int{p.u, p.w})
		if opts.TargetPairs > 0 && len(pairs) >= opts.TargetPairs {
			break
		}
	}
	// Structural invariant check: pairs are anti-edges and member-disjoint.
	seen := make([]bool, len(v.Members))
	for _, p := range pairs {
		if v.HasEdge(p[0], p[1]) {
			return nil, fmt.Errorf("matching: pair {%d,%d} is an edge, not an anti-edge", v.Members[p[0]], v.Members[p[1]])
		}
		if seen[p[0]] || seen[p[1]] {
			return nil, fmt.Errorf("matching: pair {%d,%d} reuses a matched vertex", v.Members[p[0]], v.Members[p[1]])
		}
		seen[p[0]] = true
		seen[p[1]] = true
	}
	return pairs, nil
}

// ColorPairs colors each matched anti-edge (a pair of member indices of v)
// with a shared non-reserved color (Algorithm 6 Steps 2–3): the pair
// behaves as one MultiColorTrial vertex whose palette is the intersection
// of its endpoints' palettes. Returns the number of pairs colored.
func ColorPairs(v *coloring.CliqueView, pairs [][2]int, reservedMax int32, phase string, rng *rand.Rand) (int, error) {
	if reservedMax >= v.MaxColor {
		return 0, fmt.Errorf("matching: reserved prefix %d leaves no colors", reservedMax)
	}
	span := int(v.MaxColor - reservedMax)
	colored := 0
	// Pairs behave like super-vertices; O(1) TryColor rounds followed by
	// exhaustive fallback keep this at O(log* n) shape while guaranteeing
	// termination at laptop scale.
	const maxRounds = 40
	done := make([]bool, len(pairs))
	tried := make([]int32, len(pairs)) // None: not trying this round
	for r := 0; r < maxRounds && colored < len(pairs); r++ {
		v.Charge(phase, "/try", 2, 2*v.IDBits())
		for i, p := range pairs {
			tried[i] = coloring.None
			if done[i] {
				continue
			}
			c := reservedMax + 1 + int32(rng.IntN(span))
			if v.Available(p[0], c) && v.Available(p[1], c) {
				tried[i] = c
			}
		}
		for i, p := range pairs {
			c := tried[i]
			if c == coloring.None {
				continue
			}
			conflict := false
			for j, q := range pairs[:i] {
				// An earlier pair trying the same color blocks i if they
				// touch or are adjacent.
				if tried[j] == c && adjacentPairs(v, p, q) {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			v.Colors[p[0]] = c
			v.Colors[p[1]] = c
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

func adjacentPairs(v *coloring.CliqueView, p, q [2]int) bool {
	for _, a := range p {
		for _, b := range q {
			if a == b || v.HasEdge(a, b) {
				return true
			}
		}
	}
	return false
}
