// Package putaside implements the put-aside machinery of Sections 4.3 and 7:
//
//   - ComputePutAside (Lemma 4.18 / Algorithm 20): select r uncolored
//     inliers per cabal such that put-aside sets of different cabals are
//     mutually non-adjacent and few cabal vertices neighbor foreign
//     put-aside sets.
//
//   - ColorPutAside (Proposition 4.19 / Algorithms 8–10): color the
//     put-aside vertices in O(1) rounds. If the clique palette is large,
//     TryFreeColors samples hashed free colors; otherwise the 3-way
//     donation scheme runs: candidate donors with unique colors are found
//     (FindCandidateDonors), each uncolored vertex is matched to a distinct
//     replacement color and a block of donors holding similar colors
//     (FindSafeDonors), and finally a donor's color is transferred while the
//     donor recolors itself with the replacement (DonateColors).
//
// ColorPutAside runs on one cabal's member-indexed coloring.CliqueView and
// writes only the view's colors, so the vertex-level pipeline and
// internal/distsim's member leaders run the same donation; ComputePutAside
// spans several cabals and stays vertex-level.
//
// The paper's parameter values (ℓ_s = Θ(ℓ³), b = 256·ℓ_s⁶) only matter
// asymptotically; Options exposes them scaled, and a counted fallback path
// guarantees termination at laptop scale without masking the scheme's
// behaviour (experiments report how often donation vs fallback fired).
package putaside

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
)

// ComputeOptions configures put-aside set selection.
type ComputeOptions struct {
	Phase string
	// Cabals lists the member vertices of each cabal.
	Cabals [][]int
	// Eligible reports whether a vertex may join a put-aside set
	// (uncolored inliers). Nil admits every uncolored vertex.
	Eligible func(v int) bool
	// R is the target put-aside size per cabal (the reserved-color count).
	R int
}

// ComputePutAside implements Lemma 4.18: sample candidates in each cabal,
// drop cross-cabal conflicts, and keep r per cabal. Property 2 (no edges
// between put-aside sets of different cabals) is enforced exactly; a cabal
// that cannot field r conflict-free candidates gets as many as exist (the
// caller treats the shortfall via its fallback loop and the experiments
// record it).
func ComputePutAside(cg *cluster.CG, col *coloring.Coloring, opts ComputeOptions, rng *rand.Rand) ([][]int, error) {
	if opts.R < 0 {
		return nil, fmt.Errorf("putaside: negative target r=%d", opts.R)
	}
	cabalOf := make(map[int]int)
	for i, members := range opts.Cabals {
		for _, v := range members {
			if prev, dup := cabalOf[v]; dup {
				return nil, fmt.Errorf("putaside: vertex %d in cabals %d and %d", v, prev, i)
			}
			cabalOf[v] = i
		}
	}
	// Candidate sampling: 2r eligible uncolored vertices per cabal, chosen
	// uniformly (one O(log n)-bit announce round).
	cg.ChargeHRounds(opts.Phase+"/sample", 1, 2*cg.IDBits())
	candidates := make([][]int, len(opts.Cabals))
	for i, members := range opts.Cabals {
		var pool []int
		for _, v := range members {
			if col.IsColored(v) {
				continue
			}
			if opts.Eligible != nil && !opts.Eligible(v) {
				continue
			}
			pool = append(pool, v)
		}
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		take := 2 * opts.R
		if take > len(pool) {
			take = len(pool)
		}
		candidates[i] = pool[:take]
	}
	// Conflict detection: one neighbor-exchange round; a candidate with a
	// candidate neighbor in another cabal drops out (both sides drop,
	// which keeps the rule symmetric and the property exact).
	cg.ChargeHRounds(opts.Phase+"/conflict", 1, 8)
	isCandidate := make(map[int]bool)
	for _, cs := range candidates {
		for _, v := range cs {
			isCandidate[v] = true
		}
	}
	conflicted := make(map[int]bool)
	for _, cs := range candidates {
		for _, v := range cs {
			for _, u := range cg.H.Neighbors(v) {
				w := int(u)
				if isCandidate[w] && cabalOf[w] != cabalOf[v] {
					conflicted[v] = true
					break
				}
			}
		}
	}
	out := make([][]int, len(opts.Cabals))
	selected := make(map[int]int)
	for i, cs := range candidates {
		var keep []int
		for _, v := range cs {
			if !conflicted[v] {
				keep = append(keep, v)
				selected[v] = i
			}
			if len(keep) == opts.R {
				break
			}
		}
		out[i] = keep
	}
	// Refill pass (one extra round): cabals short of r admit further
	// eligible vertices that do not neighbor any foreign selection —
	// checking against the live selection keeps Property 2 invariant.
	cg.ChargeHRounds(opts.Phase+"/refill", 1, 2*cg.IDBits())
	for i, members := range opts.Cabals {
		if len(out[i]) >= opts.R {
			continue
		}
		for _, v := range members {
			if len(out[i]) >= opts.R {
				break
			}
			if _, already := selected[v]; already {
				continue
			}
			if col.IsColored(v) {
				continue
			}
			if opts.Eligible != nil && !opts.Eligible(v) {
				continue
			}
			ok := true
			for _, u := range cg.H.Neighbors(v) {
				if j, sel := selected[int(u)]; sel && j != i {
					ok = false
					break
				}
			}
			if ok {
				out[i] = append(out[i], v)
				selected[v] = i
			}
		}
		sort.Ints(out[i])
	}
	for i := range out {
		sort.Ints(out[i])
	}
	// Verify Property 2 exactly.
	inPutAside := make(map[int]int)
	for i, ps := range out {
		for _, v := range ps {
			inPutAside[v] = i
		}
	}
	for v, i := range inPutAside {
		for _, u := range cg.H.Neighbors(v) {
			if j, ok := inPutAside[int(u)]; ok && j != i {
				return nil, fmt.Errorf("putaside: edge between put-aside sets %d and %d", i, j)
			}
		}
	}
	return out, nil
}
