package acd

import (
	"fmt"
	"math/rand/v2"

	"clustercolor/internal/cluster"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// Profile carries the per-vertex and per-clique quantities of Section 4.1
// computed on top of a decomposition: approximate external degrees ẽ_v,
// per-clique averages ẽ_K, exact clique sizes, the anti-degree proxy x_v of
// Equation (3), and the cabal classification ẽ_K < ℓ.
type Profile struct {
	Decomp *Decomposition
	// ExtDeg is ẽ_v per vertex (0 for sparse vertices).
	ExtDeg []float64
	// AvgExt is ẽ_K per clique.
	AvgExt []float64
	// Size is |K| per clique (computed exactly by aggregation).
	Size []int
	// IsCabal reports ẽ_K < ℓ per clique.
	IsCabal []bool
	// Ell is the cabal threshold ℓ used.
	Ell float64
	// Trees are BFS trees spanning each clique (used downstream for
	// ordering and prefix sums inside cliques).
	Trees []*cluster.HTree
}

// BuildProfile computes the profile of Section 4.1 with a workspace
// allocated for this call; see BuildProfileWith.
func BuildProfile(cg *cluster.CG, d *Decomposition, delta float64, ell float64, rng *rand.Rand) (*Profile, error) {
	return BuildProfileWith(cg, d, delta, ell, rng, NewWorkspace())
}

// BuildProfileWith computes the profile in one address space: it is
// BuildProfileShardedWith on the workspace's one-slice partition of cg.H,
// so after ComputeWith on the same workspace the wave reuses the
// decomposition's arenas.
func BuildProfileWith(cg *cluster.CG, d *Decomposition, delta float64, ell float64, rng *rand.Rand, ws *Workspace) (*Profile, error) {
	se, err := ws.unsharded(cg.H)
	if err != nil {
		return nil, err
	}
	return BuildProfileShardedWith(cg, se, d, delta, ell, rng, ws)
}

// BuildProfileShardedWith computes the profile of Section 4.1 on the
// engine's partition: a fingerprint wave estimates external degrees (Lemma
// 5.7 with the predicate u ∉ K_v), then per-clique BFS trees aggregate sizes
// and averages (the proof of Theorem 1.2 does exactly this). The wave
// refills the engine's arenas from a fresh seed, so it is independent of the
// decomposition waves as the lemma requires, and runs per slice with a
// boundary exchange for the halo rows and one global charge — byte-identical
// output and cost at every shard count and parallelism level. The tree and
// aggregation stages are vertex-level primitives on the cluster graph.
func BuildProfileShardedWith(cg *cluster.CG, se *shard.Engine[int8], d *Decomposition, delta, ell float64, rng *rand.Rand, ws *Workspace) (*Profile, error) {
	if ell <= 0 {
		return nil, fmt.Errorf("acd: ell %v must be positive", ell)
	}
	if cg.H == nil {
		// The tree stage needs the materialized cluster graph (BFSForest
		// walks H); headless runs get the decomposition only.
		return nil, fmt.Errorf("acd: profile requires a materialized cluster graph")
	}
	n := cg.H.N()
	p := &Profile{
		Decomp:  d,
		ExtDeg:  make([]float64, n),
		AvgExt:  make([]float64, len(d.Cliques)),
		Size:    make([]int, len(d.Cliques)),
		IsCabal: make([]bool, len(d.Cliques)),
		Ell:     ell,
	}
	if len(d.Cliques) > 0 {
		seed := rng.Uint64()
		t, err := fingerprint.TrialsFor(0.25, n)
		if err != nil {
			return nil, err
		}
		if err := se.FillSamples(t, parwork.RowSeed(seed, 0), "profile/extdeg"); err != nil {
			return nil, err
		}
		if _, err := se.Collect(cg, "profile/extdeg", shard.CollectOptions{
			Pred: func(v, u int) bool {
				return d.CliqueOf[v] >= 0 && d.CliqueOf[u] != d.CliqueOf[v]
			},
		}); err != nil {
			return nil, err
		}
		// The profile needs ẽ_v itself, so this wave estimates, for clique
		// members only.
		if err := forOwnedRows(se, func(est *sketch.MaxEstimator[int8], v int, row []int8) {
			if d.CliqueOf[v] >= 0 {
				p.ExtDeg[v] = est.Estimate(row)
			}
		}); err != nil {
			return nil, err
		}
		// Per-clique BFS trees (disjoint subgraphs → parallel, Lemma 3.2).
		sources := make([]int, len(d.Cliques))
		for i, members := range d.Cliques {
			sources[i] = members[0]
			for _, v := range members {
				if v < sources[i] {
					sources[i] = v
				}
			}
		}
		trees, err := cg.BFSForest("profile/trees", d.Cliques, sources, n)
		if err != nil {
			return nil, err
		}
		p.Trees = trees
		// Aggregate |K| and Σẽ_v per clique: two O(log n)-bit aggregation
		// waves up the BFS trees, computed in parallel across the disjoint
		// cliques (each worker writes only its clique's slots).
		cg.ChargeHRounds("profile/aggregate", 2, 2*cg.IDBits())
		if _, err := parwork.ForEach(len(d.Cliques), func(i int) (struct{}, error) {
			members := d.Cliques[i]
			p.Size[i] = len(members)
			var sum float64
			for _, v := range members {
				sum += p.ExtDeg[v]
			}
			p.AvgExt[i] = sum / float64(len(members))
			p.IsCabal[i] = p.AvgExt[i] < ell
			return struct{}{}, nil
		}); err != nil {
			return nil, err
		}
	}
	_ = delta
	return p, nil
}

// ExactExternalDegree returns e_v computed exactly (test/verification aid).
func ExactExternalDegree(cg *cluster.CG, d *Decomposition, v int) int {
	if d.CliqueOf[v] < 0 {
		return 0
	}
	e := 0
	for _, u := range cg.H.Neighbors(v) {
		if d.CliqueOf[int(u)] != d.CliqueOf[v] {
			e++
		}
	}
	return e
}

// ExactAntiDegree returns a_v = |K_v \ N(v)| − 1 computed exactly.
func ExactAntiDegree(cg *cluster.CG, d *Decomposition, v int) int {
	k := d.CliqueOf[v]
	if k < 0 {
		return 0
	}
	a := 0
	for _, u := range d.Cliques[k] {
		if u != v && !cg.H.HasEdge(v, u) {
			a++
		}
	}
	return a
}

// AntiDegreeProxy returns x_v of Equation (3):
// x_v = |K| − (Δ+1) + ẽ_v, the quantity inliers are selected by in
// non-cabals (Equation (4)).
func (p *Profile) AntiDegreeProxy(v int, delta int) float64 {
	k := p.Decomp.CliqueOf[v]
	if k < 0 {
		return 0
	}
	return float64(p.Size[k]) - float64(delta+1) + p.ExtDeg[v]
}

// CabalVertices returns the vertices in cabals (V_cabal).
func (p *Profile) CabalVertices() []int {
	var out []int
	for i, members := range p.Decomp.Cliques {
		if p.IsCabal[i] {
			out = append(out, members...)
		}
	}
	return out
}
