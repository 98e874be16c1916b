// Package sct implements the synchronized color trial (Lemma 4.13, Appendix
// D.9): inside an almost-clique K, a set S of uncolored vertices is ordered
// 1..|S| (prefix sums on a BFS tree spanning K, Lemma 3.3), a pseudorandom
// permutation π — describable by an O(log n)-bit seed — is broadcast, and
// the π(i)-th vertex of S tries the i-th color of the clique palette beyond
// the reserved prefix. Because every vertex of S tries a distinct in-clique
// color, the only conflicts are with external neighbors, and w.h.p. at most
// O(max{e_K, ℓ}) vertices remain uncolored.
//
// Run takes the clique as a member-indexed coloring.CliqueView and writes
// its outcome only to the view's colors, so the vertex-level pipeline and
// internal/distsim's member leaders run the same trial.
package sct

import (
	"fmt"
	"math/rand/v2"

	"clustercolor/internal/coloring"
	"clustercolor/internal/prng"
)

// Options configures one synchronized color trial in one almost-clique.
type Options struct {
	// Phase labels the cost entries.
	Phase string
	// Participants is S ⊆ K as member indices of the view: the uncolored
	// members taking part. Must satisfy |S| ≤ |L(K)| − reserved (Lemma
	// 4.13's precondition); excess participants are rejected.
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

// Run performs the synchronized color trial in the clique of v. Conflict
// detection with external neighbors is one O(log Δ)-bit H-round.
func Run(v *coloring.CliqueView, opts Options, rng *rand.Rand) (*Result, error) {
	cp := v.Palette()
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
	for _, i := range opts.Participants {
		if v.Colors[i] != coloring.None {
			return nil, fmt.Errorf("sct: participant %d already colored", v.Members[i])
		}
	}
	// Order S by prefix sums over the clique tree (Lemma 3.3), then apply
	// the pseudorandom permutation sampled by the clique leader.
	v.Charge(opts.Phase, "/enumerate", 2, 2*v.IDBits())
	seed := rng.Uint64()
	perm := prng.Permutation(len(opts.Participants), seed)
	v.Charge(opts.Phase, "/perm-seed", 1, 64)
	// Assignment: participant at position p tries free[perm[p]]; candidate
	// is None for members that do not participate.
	candidate := make([]int32, len(v.Members))
	for p, i := range opts.Participants {
		candidate[i] = free[perm[p]]
	}
	// One H-round of conflict detection with external neighbors: a
	// candidate survives unless a neighbor holds it or also tries it with a
	// smaller vertex id (in-clique candidates are distinct by
	// construction).
	v.Charge(opts.Phase, "/conflict", 1, 16)
	res := &Result{Tried: len(opts.Participants)}
	var nbrs []int
	for _, i := range opts.Participants {
		c := candidate[i]
		ok := !v.ExtHolds(i, c)
		nbrs = v.AppendNeighbors(nbrs[:0], i)
		for _, j := range nbrs {
			if v.Colors[j] == c || (candidate[j] == c && v.Members[j] < v.Members[i]) {
				ok = false
				break
			}
		}
		if ok {
			v.Colors[i] = c
			res.Colored++
		}
	}
	return res, nil
}
