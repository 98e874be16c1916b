package core

import (
	"math/rand/v2"
	"sync"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
)

// The per-clique stage loops (colorful matchings, synchronized color trials,
// put-aside donation) are embarrassingly parallel: almost-cliques are
// vertex-disjoint, so each clique's job writes only its own members.
// runPerClique fans them across the parwork worker pool — the same
// machinery and SetParallelism knob as the experiment runner — while
// keeping the output coloring byte-identical at every parallelism level:
//
//   - each clique derives its own RNG stream from one base seed and its
//     clique index (parwork.RowSeed), never from a shared stream;
//   - each job runs on its clique's coloring.CliqueView, filled from H and
//     the coloring frozen at loop entry, so no job observes another
//     clique's concurrent writes;
//   - the resulting member writes are applied to the shared coloring
//     sequentially in clique order, and any write that conflicts with an
//     earlier-applied neighbor write (a cross-clique edge whose endpoints
//     picked the same color against the same snapshot) is dropped — the
//     vertex keeps its snapshot state and a later stage or the terminal
//     fallback recovers it.
//
// Dropping on conflict keeps the coloring proper by construction: a kept
// snapshot color was proper when the snapshot was taken, and every applied
// write is validated against all previously applied writes.

// cliqueRun is one clique's outcome: the job payload, the scratch cost
// model, and the member writes (MemberWrites order).
type cliqueRun[T any] struct {
	val    T
	sub    *network.CostModel
	writes []MemberWrite
}

// runPerClique executes job for each of n vertex-disjoint cliques in
// parallel and applies the resulting writes in clique order. memberOf(i)
// must return the members of clique i; job receives the clique's view,
// whose charge hook is a subCG bound to a scratch cost model (merged
// afterwards with AbsorbParallel under phase), and a derived RNG. Each
// worker reuses one view across its cliques.
//
// It returns the per-clique payloads in index order, the snapshot-relative
// member writes per clique (what each job decided, before cross-clique
// conflict drops — the stage tracer and the distsim conformance harness
// compare machine-level protocols against exactly these), plus the number
// of writes dropped at apply time. Payloads are measured against the
// clique's snapshot run, so when a cross-clique collision drops a write
// they can overstate the applied effect; the drop count makes that skew
// visible (callers surface it via Stats.ParallelDroppedWrites).
// captureWrites selects whether the per-clique write lists are returned
// (only stage tracing needs them).
func runPerClique[T any](cg *cluster.CG, col *coloring.Coloring, phase string,
	n int, baseSeed uint64, captureWrites bool, memberOf func(i int) []int,
	job func(i int, v *coloring.CliqueView, rng *rand.Rand) (T, error),
) ([]T, [][]MemberWrite, int, error) {
	if n == 0 {
		return nil, nil, 0, nil
	}
	views := sync.Pool{New: func() any { return &coloring.CliqueView{} }}
	runs, err := parwork.ForEach(n, func(i int) (cliqueRun[T], error) {
		sub, err := network.NewCostModel(cg.Cost().Bandwidth())
		if err != nil {
			return cliqueRun[T]{}, err
		}
		v := views.Get().(*coloring.CliqueView)
		defer views.Put(v)
		if err := v.Fill(cg.WithCost(sub), col, memberOf(i)); err != nil {
			return cliqueRun[T]{}, err
		}
		val, err := job(i, v, parwork.StreamRNG(parwork.RowSeed(baseSeed, i)))
		if err != nil {
			return cliqueRun[T]{}, err
		}
		return cliqueRun[T]{val: val, sub: sub, writes: MemberWrites(col, v.Members, v.Colors)}, nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	vals := make([]T, n)
	var writes [][]MemberWrite
	if captureWrites {
		writes = make([][]MemberWrite, n)
	}
	subs := make([]*network.CostModel, n)
	// The apply loop must stay sequential (clique order is the conflict
	// tie-break), but its O(deg) neighbor scan per write only needs the
	// neighbors that were themselves written this stage: every job keeps
	// its view proper against the full neighborhood, so for any write v→c
	// and unwritten neighbor u, c differs from u's snapshot color — which
	// is exactly u's color for the whole apply pass. (Neighbors whose write
	// is a net-uncolor still count as written: their write drops and they
	// keep a snapshot color the job no longer vouches against.) So at
	// parallelism > 1 the edge scans — the serial fraction that capped
	// Amdahl scaling of the per-clique stages — precompute candidate lists
	// across the pool, and the sequential decision loop touches candidates
	// only. Checking the same col.Get values in the same order, it makes
	// decisions byte-identical to the full scan.
	var cands [][][]int32
	totalWrites := 0
	for i := range runs {
		totalWrites += len(runs[i].writes)
	}
	if totalWrites >= parallelApplyMinWrites && parwork.Parallelism() > 1 {
		written := make([]bool, col.N())
		for i := range runs {
			for _, w := range runs[i].writes {
				written[w.V] = true
			}
		}
		cands = make([][][]int32, n)
		if _, err := parwork.ForEach(n, func(i int) (struct{}, error) {
			ws := runs[i].writes
			if len(ws) == 0 {
				return struct{}{}, nil
			}
			lists := make([][]int32, len(ws))
			for j, w := range ws {
				var cl []int32
				for _, u := range cg.H.Neighbors(w.V) {
					if written[u] {
						cl = append(cl, int32(u))
					}
				}
				lists[j] = cl
			}
			cands[i] = lists
			return struct{}{}, nil
		}); err != nil {
			return nil, nil, 0, err
		}
	}
	dropped := 0
	for i, run := range runs {
		vals[i] = run.val
		subs[i] = run.sub
		if captureWrites {
			writes[i] = run.writes
		}
		for j, w := range run.writes {
			v, c := w.V, w.C
			if c == coloring.None {
				// Jobs never net-uncolor a member; if one ever does, keep
				// the snapshot color — dropping information is always proper.
				dropped++
				continue
			}
			conflict := false
			if cands != nil {
				for _, u := range cands[i][j] {
					if col.Get(int(u)) == c {
						conflict = true
						break
					}
				}
			} else {
				for _, u := range cg.H.Neighbors(v) {
					if col.Get(int(u)) == c {
						conflict = true
						break
					}
				}
			}
			if conflict {
				dropped++
				continue
			}
			if err := col.Set(v, c); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	cg.Cost().AbsorbParallel(phase, subs)
	return vals, writes, dropped, nil
}

// parallelApplyMinWrites gates the candidate precompute: below it the plain
// serial scan is cheaper than a pool dispatch. The decisions are identical
// either way — the gate moves only wall-clock.
const parallelApplyMinWrites = 128
