package shard

import (
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
	"clustercolor/internal/sketch"
)

func testCG(t *testing.T, h *graph.Graph, seed uint64) *cluster.CG {
	t.Helper()
	rng := graph.NewRand(seed)
	exp, err := graph.Expand(h, graph.ExpandSpec{Topology: graph.TopologySingleton}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := network.NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := cluster.New(h, exp, cost)
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

// runUnsharded runs one reference collect wave on the vertex-level engine.
func runUnsharded(t *testing.T, cg *cluster.CG, width int, opts sketch.CollectOptions) ([]int8, int, int64) {
	t.Helper()
	cost, err := network.NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	run := cg.WithCost(cost)
	eng := sketch.Engine[int8]{Kernel: sketch.MaxKernel{}}
	n := run.H.N()
	if err := eng.FillSamples(n, width, parwork.RowSeed(99, 0)); err != nil {
		t.Fatal(err)
	}
	maxBits, err := eng.Collect(run, "wave", opts)
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]int8, 0, n*width)
	for v := 0; v < n; v++ {
		flat = append(flat, eng.Row(v)...)
	}
	return flat, maxBits, run.Cost().Rounds()
}

// runSharded runs the same wave on the shard engine at a given shard count
// and parallelism and returns the owner-resolved rows plus charges and
// exchange stats.
func runSharded(t *testing.T, cg *cluster.CG, shards, par, width int, opts CollectOptions) ([]int8, int, int64, ExchangeStats) {
	t.Helper()
	prev := parwork.SetParallelism(par)
	defer parwork.SetParallelism(prev)
	cost, err := network.NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	run := cg.WithCost(cost)
	sg, err := graph.NewShardedGraph(run.H, shards)
	if err != nil {
		t.Fatal(err)
	}
	se := NewEngine(sg, sketch.MaxKernel{})
	if err := se.FillSamples(width, parwork.RowSeed(99, 0), "wave"); err != nil {
		t.Fatal(err)
	}
	maxBits, err := se.Collect(run, "wave", opts)
	if err != nil {
		t.Fatal(err)
	}
	n := run.H.N()
	flat := make([]int8, 0, n*width)
	for v := 0; v < n; v++ {
		flat = append(flat, se.Row(v)...)
	}
	return flat, maxBits, run.Cost().Rounds(), se.Stats
}

// TestShardedCollectByteIdentity is the substrate's core invariant: the
// collect wave must produce byte-identical rows and identical charges at
// shard counts 1/2/4 (plus non-dividing and all-boundary cases) and every
// parallelism, for both the plain and the predicate-filtered wave.
func TestShardedCollectByteIdentity(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp": graph.MustGNP(180, 0.08, graph.NewRand(5)),
	}
	if rc, err := graph.RingOfCliques(8, 9); err == nil {
		graphs["ringcliques"] = rc // shard borders cut mid-clique
	} else {
		t.Fatal(err)
	}
	preds := map[string]func(v, u int) bool{
		"all":  nil,
		"even": func(v, u int) bool { return (v+u)%2 == 0 },
	}
	const width = 48
	for gname, h := range graphs {
		cg := testCG(t, h, 3)
		for pname, pred := range preds {
			var unsharded sketch.CollectOptions
			if pred != nil {
				unsharded.Pred = func(v, u, slot int) bool { return pred(v, u) }
			}
			want, wantBits, wantRounds := runUnsharded(t, cg, width, unsharded)
			for _, shards := range []int{1, 2, 4, 7} {
				for _, par := range []int{1, 4} {
					got, gotBits, gotRounds, stats := runSharded(t, cg, shards, par, width, CollectOptions{Pred: pred})
					label := gname + "/" + pname
					if gotBits != wantBits {
						t.Fatalf("%s shards=%d par=%d: payload %d, want %d", label, shards, par, gotBits, wantBits)
					}
					if gotRounds != wantRounds {
						t.Fatalf("%s shards=%d par=%d: rounds %d, want %d", label, shards, par, gotRounds, wantRounds)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s shards=%d par=%d: row bytes diverge at cell %d", label, shards, par, i)
						}
					}
					if shards == 1 && (stats.Rows != 0 || stats.Bits != 0) {
						t.Fatalf("%s: single shard shipped %d rows / %d bits across boundaries", label, stats.Rows, stats.Bits)
					}
					if shards > 1 && gname == "ringcliques" && stats.Rows == 0 {
						t.Fatalf("%s shards=%d: no boundary traffic on a cut graph", label, shards)
					}
				}
			}
		}
	}
}

// TestShardedCollectIncludeSelf covers the IncludeSelf merge path.
func TestShardedCollectIncludeSelf(t *testing.T) {
	h := graph.MustGNP(90, 0.1, graph.NewRand(8))
	cg := testCG(t, h, 4)
	want, wantBits, _ := runUnsharded(t, cg, 32, sketch.CollectOptions{IncludeSelf: true})
	got, gotBits, _, _ := runSharded(t, cg, 3, 4, 32, CollectOptions{IncludeSelf: true})
	if gotBits != wantBits {
		t.Fatalf("payload %d, want %d", gotBits, wantBits)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IncludeSelf rows diverge at cell %d", i)
		}
	}
}

// TestExchangeStatsAccounting pins the bookkeeping: per-pair bits sum to the
// total, phases are recorded in order, and an exchange phase exists per
// wave (samples + out).
func TestExchangeStatsAccounting(t *testing.T) {
	h, err := graph.RingOfCliques(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	cg := testCG(t, h, 9)
	_, _, _, stats := runSharded(t, cg, 4, 2, 40, CollectOptions{})
	if len(stats.Phases) != 2 {
		t.Fatalf("want 2 exchange phases (samples, out), got %d: %+v", len(stats.Phases), stats.Phases)
	}
	if stats.Phases[0].Phase != "wave/samples" || stats.Phases[1].Phase != "wave/out" {
		t.Fatalf("unexpected phase labels: %+v", stats.Phases)
	}
	var pairSum, phaseSum int64
	for _, b := range stats.PairBits {
		pairSum += b
	}
	for _, ph := range stats.Phases {
		phaseSum += ph.Bits
		if ph.Bits > stats.MaxPhaseBits {
			t.Fatalf("phase %q bits %d exceed MaxPhaseBits %d", ph.Phase, ph.Bits, stats.MaxPhaseBits)
		}
	}
	if pairSum != stats.Bits || phaseSum != stats.Bits {
		t.Fatalf("pair sum %d / phase sum %d disagree with total %d", pairSum, phaseSum, stats.Bits)
	}
	if stats.Rows == 0 || stats.Bits == 0 {
		t.Fatal("cut graph produced no boundary traffic")
	}
}

// TestShardedEmptyAndTinyShards drives the engine over degenerate
// partitions: more shards than vertices and single-vertex shards.
func TestShardedEmptyAndTinyShards(t *testing.T) {
	h := graph.Clique(5)
	cg := testCG(t, h, 11)
	want, wantBits, _ := runUnsharded(t, cg, 24, sketch.CollectOptions{})
	for _, shards := range []int{5, 9} {
		got, gotBits, _, _ := runSharded(t, cg, shards, 2, 24, CollectOptions{})
		if gotBits != wantBits {
			t.Fatalf("shards=%d: payload %d, want %d", shards, gotBits, wantBits)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: rows diverge at cell %d", shards, i)
			}
		}
	}
}
