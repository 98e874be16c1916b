package acd

import (
	"strings"
	"sync"
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// TestFillBuddyBitsJudgeCount pins how often the buddy fill runs the
// predicate, the decomposition's dominant cost: on the one-slice partition
// every admitted edge is judged exactly once, and on 2 and 4 slices a cut
// edge is judged once by each of its two owners and every other edge once.
// Judging every directed edge instead would nearly double the decomposition.
// The bitmap must hold the judge's verdict on every owned directed slot,
// mirrored slots included.
func TestFillBuddyBitsJudgeCount(t *testing.T) {
	h, err := graph.RingOfCliques(7, 11)
	if err != nil {
		t.Fatal(err)
	}
	admit := func(v int) bool { return v%5 != 0 }
	verdict := func(v, u int) bool { return (v*u+v+u)%3 != 0 } // symmetric
	for _, shards := range []int{1, 2, 4} {
		for _, par := range []int{1, 4} {
			sg, err := graph.NewShardedGraph(h, shards)
			if err != nil {
				t.Fatal(err)
			}
			prev := parwork.SetParallelism(par)
			se := shard.NewEngine(sg, sketch.MaxKernel{})
			var mu sync.Mutex
			judged := make(map[[2]int]int)
			bits, wordOff, err := fillBuddyBits(se, NewWorkspace(), 64, admit, func(_ *sketch.Scratch[int8], s, lv, lu int) bool {
				sl := sg.Slices[s]
				v, u := sl.ToGlobal(lv), sl.ToGlobal(lu)
				mu.Lock()
				judged[[2]int{min(v, u), max(v, u)}]++
				mu.Unlock()
				return verdict(v, u)
			})
			parwork.SetParallelism(prev)
			if err != nil {
				t.Fatal(err)
			}
			cut := 0
			for v := 0; v < h.N(); v++ {
				for _, u32 := range h.Neighbors(v) {
					u := int(u32)
					if u < v {
						continue
					}
					want := 0
					if admit(v) && admit(u) {
						want = 1
						if sg.Owner(v) != sg.Owner(u) {
							want = 2
							cut++
						}
					}
					if got := judged[[2]int{v, u}]; got != want {
						t.Fatalf("shards=%d par=%d: edge {%d,%d} judged %d times, want %d", shards, par, v, u, got, want)
					}
				}
			}
			if (shards > 1) != (cut > 0) {
				t.Fatalf("shards=%d: %d admitted cut edges", shards, cut)
			}
			for s, sl := range sg.Slices {
				for lv := 0; lv < sl.Own(); lv++ {
					v := sl.Lo + lv
					base := sl.CSR.AdjOffset(lv)
					for j, lu := range sl.CSR.Neighbors(lv) {
						u := sl.ToGlobal(int(lu))
						slot := base + j
						got := bits[wordOff[s]+(slot>>6)]&(1<<(slot&63)) != 0
						if want := admit(v) && admit(u) && verdict(v, u); got != want {
							t.Fatalf("shards=%d par=%d: bit of (%d,%d) = %v, want %v", shards, par, v, u, got, want)
						}
					}
				}
			}
		}
	}
}

// TestComputeShardedRejectsOtherGraph pins the materialized mismatch check:
// an engine partitioning a different graph on the same vertex count must
// error rather than decompose the wrong edges.
func TestComputeShardedRejectsOtherGraph(t *testing.T) {
	h, err := graph.RingOfCliques(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	other := graph.MustGNP(h.N(), 0.3, graph.NewRand(5))
	cg := asCG(t, h, 17)
	for _, shards := range []int{1, 2} {
		sg, err := graph.NewShardedGraph(other, shards)
		if err != nil {
			t.Fatal(err)
		}
		se := shard.NewEngine(sg, sketch.MaxKernel{})
		if _, err := ComputeShardedWith(cg, se, 0.2, parwork.StreamRNG(41), NewWorkspace()); err == nil || !strings.Contains(err.Error(), "different graph") {
			t.Fatalf("shards=%d: got %v, want a different-graph error", shards, err)
		}
	}
}

// TestUnshardedWorkspaceEngine pins the workspace contract of the unsharded
// entry points: ComputeWith and BuildProfileWith on one workspace run on one
// one-slice engine, so the profile wave reuses the decomposition's arenas,
// and its slice is the cluster graph itself rather than a copy. A new
// parallelism budget rebuilds the engine so its pool follows the budget, and
// a headless cluster view, which has no graph to slice, is an error.
func TestUnshardedWorkspaceEngine(t *testing.T) {
	h, _ := plantedInstance(t, 3)
	cg := asCG(t, h, 17)
	ws := NewWorkspace()
	rng := parwork.StreamRNG(41)
	d, err := ComputeWith(cg, 0.2, rng, ws)
	if err != nil {
		t.Fatal(err)
	}
	se := ws.one
	if se == nil || se.SG.NumShards() != 1 || se.SG.Slices[0].CSR != cg.H {
		t.Fatal("ComputeWith did not run on a one-slice partition aliasing the cluster graph")
	}
	if _, err := BuildProfileWith(cg, d, float64(h.MaxDegree()), 8, rng, ws); err != nil {
		t.Fatal(err)
	}
	if ws.one != se {
		t.Fatal("BuildProfileWith built a second engine instead of reusing the decomposition's")
	}
	prev := parwork.SetParallelism(parwork.Parallelism() + 1)
	_, err = ComputeWith(cg, 0.2, parwork.StreamRNG(41), ws)
	parwork.SetParallelism(prev)
	if err != nil {
		t.Fatal(err)
	}
	if ws.one == se {
		t.Fatal("engine kept a pool split from a stale parallelism budget")
	}
	cost, err := network.NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	headless, err := cluster.NewHeadless(h.N(), cg.Dilation, cost)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeWith(headless, 0.2, parwork.StreamRNG(41), ws); err == nil {
		t.Fatal("ComputeWith accepted a headless cluster view")
	}
}
