package acd

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// checkDecisions replays the two sketch waves of the ComputeShardedWith call
// that drew from rng and left ws behind, on a fresh engine over the same
// partition, and checks every threshold decision of that call against the
// inverting reference: each buddy bit against Estimate ≥ lowCut at both
// endpoints and EstimateMerged ≤ joinCut on the edge, and each dense flag
// against Estimate ≥ lowCut. The replay also puts every decision to fresh
// Cutoffs and checks them against the same reference, and logs how many of
// those decisions fell inside a guard band.
func checkDecisions(t testing.TB, cg *cluster.CG, sg *graph.ShardedGraph, eps float64, rng *rand.Rand, ws *Workspace) {
	t.Helper()
	seed := rng.Uint64()
	delta := float64(sg.MaxDegree())
	if delta == 0 {
		return
	}
	xi := eps / 2
	trials, err := fingerprint.TrialsFor(xi/2, sg.N())
	if err != nil {
		t.Fatal(err)
	}
	lowCut, joinCut := (1-1.5*xi)*delta, (1+1.5*xi)*delta
	low, join, dense := sketch.NewCutoff(lowCut), sketch.NewCutoff(joinCut), sketch.NewCutoff(lowCut)
	se := shard.NewEngine(sg, sketch.MaxKernel{})
	wordOff := buddyWordOffsets(sg)
	isBuddy := func(s, lslot int) bool {
		return ws.buddy[wordOff[s]+(lslot>>6)]&(1<<(lslot&63)) != 0
	}
	// eachOwned runs check over every owned vertex, chunked across the pool.
	eachOwned := func(check func(est *sketch.MaxEstimator[int8], s int, sl *graph.ShardSlice, lv int) error) {
		t.Helper()
		for s, sl := range sg.Slices {
			chunks := parwork.RangeChunks(sl.Own())
			if _, err := parwork.ForEach(chunks, func(ci int) (struct{}, error) {
				var est sketch.MaxEstimator[int8]
				lo, hi := parwork.ChunkBoundsIn(sl.Own(), chunks, ci)
				for lv := lo; lv < hi; lv++ {
					if err := check(&est, s, sl, lv); err != nil {
						return struct{}{}, err
					}
				}
				return struct{}{}, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := se.FillSamples(trials, parwork.RowSeed(seed, 0), "replay/nbhd"); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Collect(cg, "replay/nbhd", shard.CollectOptions{}); err != nil {
		t.Fatal(err)
	}
	admitted := make([]bool, sg.N())
	eachOwned(func(est *sketch.MaxEstimator[int8], s int, sl *graph.ShardSlice, lv int) error {
		row := se.OutRowLocal(s, lv)
		want := est.Estimate(row) >= lowCut
		if got := low.AtLeast(est, row); got != want {
			return fmt.Errorf("vertex %d: degree test %v, inverted estimate says %v", sl.Lo+lv, got, want)
		}
		admitted[sl.Lo+lv] = want
		return nil
	})
	eachOwned(func(est *sketch.MaxEstimator[int8], s int, sl *graph.ShardSlice, lv int) error {
		v := sl.Lo + lv
		base := sl.CSR.AdjOffset(lv)
		for j, lu32 := range sl.CSR.Neighbors(lv) {
			lu, u := int(lu32), sl.ToGlobal(int(lu32))
			var want bool
			switch {
			case lu < lv:
				// Owned, and judged from lu: the reverse slot mirrors it.
				want = isBuddy(s, sl.CSR.AdjOffset(lu)+sl.CSR.NeighborIndex(lu, lv))
			case admitted[v] && admitted[u]:
				a, b := se.OutRowLocal(s, lv), se.OutRowLocal(s, lu)
				want = est.EstimateMerged(a, b) <= joinCut
				if got := join.MergedAtMost(est, a, b); got != want {
					return fmt.Errorf("edge %d–%d: joint-neighborhood test %v, inverted estimate says %v", v, u, got, want)
				}
			}
			if got := isBuddy(s, base+j); got != want {
				return fmt.Errorf("edge %d–%d: buddy bit %v, reference %v", v, u, got, want)
			}
		}
		return nil
	})

	if err := se.FillSamples(trials, parwork.RowSeed(seed, 1), "replay/buddy-count"); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Collect(cg, "replay/buddy-count", shard.CollectOptions{
		LocalPred: func(s, lv, lu, lslot int) bool { return isBuddy(s, lslot) },
	}); err != nil {
		t.Fatal(err)
	}
	eachOwned(func(est *sketch.MaxEstimator[int8], s int, sl *graph.ShardSlice, lv int) error {
		v := sl.Lo + lv
		row := se.OutRowLocal(s, lv)
		want := est.Estimate(row) >= lowCut
		if got := dense.AtLeast(est, row); got != want {
			return fmt.Errorf("vertex %d: dense test %v, inverted estimate says %v", v, got, want)
		}
		if ws.above[v] != want {
			return fmt.Errorf("vertex %d: dense flag %v, reference %v", v, ws.above[v], want)
		}
		return nil
	})
	t.Logf("guard-band hits: degree %d, joint neighborhood %d, dense %d", low.Inverted(), join.Inverted(), dense.Inverted())
}

// TestDecisionsMatchInversionAtBenchmarkScale runs the decomposition on the
// instances of the planted-high and ring-sharded benchmark workloads, at
// their shard counts and the default ε, and checks every degree, buddy and
// dense decision against the inverted estimates. Cluster topology changes
// only the charged costs, never a decision.
func TestDecisionsMatchInversionAtBenchmarkScale(t *testing.T) {
	const eps = 0.25
	t.Run("planted-high", func(t *testing.T) {
		h, _, err := graph.PlantedACD(graph.PlantedACDSpec{
			NumCliques: 20, CliqueSize: 150, DropFraction: 0.05, ExternalDegree: 8, SparseN: 2000, SparseP: 0.01,
		}, graph.NewRand(3))
		if err != nil {
			t.Fatal(err)
		}
		cg := asCGSingleton(t, h, 3)
		ws := NewWorkspace()
		if _, err := ComputeWith(cg, eps, parwork.StreamRNG(3), ws); err != nil {
			t.Fatal(err)
		}
		checkDecisions(t, cg, ws.one.SG, eps, parwork.StreamRNG(3), ws)
	})
	t.Run("ring-sharded", func(t *testing.T) {
		h, err := graph.RingOfCliques(200, 60)
		if err != nil {
			t.Fatal(err)
		}
		cg := asCG(t, h, 3)
		sg, err := graph.NewShardedGraph(h, 2)
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace()
		if _, err := ComputeShardedWith(cg, shard.NewEngine(sg, sketch.MaxKernel{}), eps, parwork.StreamRNG(3), ws); err != nil {
			t.Fatal(err)
		}
		checkDecisions(t, cg, sg, eps, parwork.StreamRNG(3), ws)
	})
}
