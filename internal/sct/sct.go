// Package sct implements the synchronized color trial (Lemma 4.13, Appendix
// D.9): inside an almost-clique K, a set S of uncolored vertices is ordered
// 1..|S| (prefix sums on a BFS tree spanning K, Lemma 3.3), a pseudorandom
// permutation π — describable by an O(log n)-bit seed — is broadcast, and
// the π(i)-th vertex of S tries the i-th color of the clique palette beyond
// the reserved prefix. Because every vertex of S tries a distinct in-clique
// color, the only conflicts are with external neighbors, and w.h.p. at most
// O(max{e_K, ℓ}) vertices remain uncolored.
package sct

import (
	"fmt"
	"math/rand/v2"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/prng"
)

// Options configures one synchronized color trial in one almost-clique.
type Options struct {
	// Phase labels the cost entries.
	Phase string
	// Members is the almost-clique K.
	Members []int
	// Participants is S ⊆ K, the uncolored vertices taking part. Must
	// satisfy |S| ≤ |L(K)| − reserved (Lemma 4.13's precondition); excess
	// participants are rejected.
	Participants []int
	// ReservedMax: colors 1..ReservedMax are not used by the trial.
	ReservedMax int32
}

// Result reports a trial's outcome for one clique.
type Result struct {
	// Tried is the number of participants that received a candidate color.
	Tried int
	// Colored is the number that kept it.
	Colored int
}

// Run performs the synchronized color trial in one clique. Conflict
// detection with external neighbors is one O(log Δ)-bit H-round.
func Run(cg *cluster.CG, col *coloring.Coloring, opts Options, rng *rand.Rand) (*Result, error) {
	cp := coloring.BuildCliquePalette(cg, col, opts.Members)
	// Palette beyond the reserved prefix.
	free := make([]int32, 0, cp.FreeCount())
	for _, c := range cp.FreeView() {
		if c > opts.ReservedMax {
			free = append(free, c)
		}
	}
	if len(opts.Participants) > len(free) {
		return nil, fmt.Errorf("sct: %d participants but only %d non-reserved palette colors (Lemma 4.13 precondition)",
			len(opts.Participants), len(free))
	}
	for _, v := range opts.Participants {
		if col.IsColored(v) {
			return nil, fmt.Errorf("sct: participant %d already colored", v)
		}
	}
	// Order S by prefix sums over the clique tree (Lemma 3.3), then apply
	// the pseudorandom permutation sampled by the clique leader.
	cg.ChargeHRounds(opts.Phase+"/enumerate", 2, 2*cg.IDBits())
	seed := rng.Uint64()
	perm := prng.Permutation(len(opts.Participants), seed)
	cg.ChargeHRounds(opts.Phase+"/perm-seed", 1, 64)
	// Assignment: participant at position i tries free[perm[i]].
	candidate := make(map[int]int32, len(opts.Participants))
	for i, v := range opts.Participants {
		candidate[v] = free[perm[i]]
	}
	// One H-round of conflict detection with external neighbors: a
	// candidate survives unless an external neighbor holds it or also
	// tries it with a smaller index (in-clique candidates are distinct by
	// construction).
	cg.ChargeHRounds(opts.Phase+"/conflict", 1, 16)
	res := &Result{Tried: len(opts.Participants)}
	for _, v := range opts.Participants {
		c := candidate[v]
		ok := true
		for _, u := range cg.H.Neighbors(v) {
			w := int(u)
			if col.Get(w) == c {
				ok = false
				break
			}
			if cw, trying := candidate[w]; trying && cw == c && w < v {
				ok = false
				break
			}
		}
		if ok {
			if err := col.Set(v, c); err != nil {
				return nil, fmt.Errorf("sct: adopting color: %w", err)
			}
			res.Colored++
		}
	}
	return res, nil
}
