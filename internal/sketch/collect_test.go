package sketch

import (
	"runtime"
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
)

func testCG(t *testing.T, h *graph.Graph, seed uint64) *cluster.CG {
	t.Helper()
	rng := graph.NewRand(seed)
	exp, err := graph.Expand(h, graph.ExpandSpec{Topology: graph.TopologyStar, MachinesPerCluster: 3, RedundantLinks: 2}, rng)
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

// runCollect runs one wave of kernel k at the given parallelism and returns
// the flat output rows, the charged payload, and the total rounds charged.
func runCollect[C Cell](t *testing.T, cg *cluster.CG, k Kernel[C], width int, par int, opts CollectOptions) ([]C, int, int64) {
	t.Helper()
	prev := parwork.SetParallelism(par)
	defer parwork.SetParallelism(prev)
	freshCost, err := network.NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	run := cg.WithCost(freshCost)
	eng := Engine[C]{Kernel: k}
	n := run.H.N()
	if err := eng.FillSamples(n, width, parwork.RowSeed(77, 0)); err != nil {
		t.Fatal(err)
	}
	maxBits, err := eng.Collect(run, "conformance", opts)
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]C, 0, n*width)
	for v := 0; v < n; v++ {
		flat = append(flat, eng.Row(v)...)
	}
	return flat, maxBits, run.Cost().Rounds()
}

// checkCollectParallelism asserts one wave shape produces byte-identical
// rows, payload, and rounds at parallelism 1, 2, 4, and NumCPU.
func checkCollectParallelism[C Cell](t *testing.T, cg *cluster.CG, k Kernel[C], width int, opts CollectOptions) {
	t.Helper()
	levels := []int{1, 2, 4, runtime.NumCPU()}
	baseRows, baseBits, baseRounds := runCollect(t, cg, k, width, 1, opts)
	for _, par := range levels[1:] {
		rows, bits, rounds := runCollect(t, cg, k, width, par, opts)
		if !rowsEqual(rows, baseRows) {
			t.Fatalf("par %d: output rows differ from par 1", par)
		}
		if bits != baseBits {
			t.Fatalf("par %d: payload %d bits, par 1 charged %d", par, bits, baseBits)
		}
		if rounds != baseRounds {
			t.Fatalf("par %d: %d rounds, par 1 charged %d", par, rounds, baseRounds)
		}
	}
}

// TestCollectParallelismByteEquality is the engine's core conformance check:
// a collect wave must produce byte-identical rows, the same charged payload,
// and the same round count at parallelism 1, 2, 4, and NumCPU — plain, with
// the vertex's own row, and with a predicate.
func TestCollectParallelismByteEquality(t *testing.T) {
	h := graph.MustGNP(700, 0.02, graph.NewRand(11))
	cg := testCG(t, h, 5)
	pred := func(v, u, slot int) bool { return (v+u)%3 != 0 }
	t.Run("max", func(t *testing.T) {
		checkCollectParallelism[int8](t, cg, MaxKernel{}, 161, CollectOptions{})
	})
	t.Run("max/self", func(t *testing.T) {
		checkCollectParallelism[int8](t, cg, MaxKernel{}, 161, CollectOptions{IncludeSelf: true})
	})
	t.Run("max/pred", func(t *testing.T) {
		checkCollectParallelism[int8](t, cg, MaxKernel{}, 161, CollectOptions{Pred: pred})
	})
}

// TestCollectMatchesDirectFold cross-checks one wave against a sequential
// per-vertex fold written directly against the kernel — no arena, no
// chunking — so a bug that broke both parallel paths the same way would
// still be caught.
func TestCollectMatchesDirectFold(t *testing.T) {
	h := graph.MustGNP(300, 0.04, graph.NewRand(21))
	cg := testCG(t, h, 9)
	const width = 97
	k := MaxKernel{}
	eng := Engine[int8]{Kernel: k}
	n := h.N()
	if err := eng.FillSamples(n, width, parwork.RowSeed(31, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Collect(cg, "direct", CollectOptions{IncludeSelf: true}); err != nil {
		t.Fatal(err)
	}
	tmp := make([]int8, width)
	for v := 0; v < n; v++ {
		want := make([]int8, width)
		k.Fill(want, parwork.RowSeed(parwork.RowSeed(31, 0), v))
		for _, u32 := range h.Neighbors(v) {
			k.Fill(tmp, parwork.RowSeed(parwork.RowSeed(31, 0), int(u32)))
			MergeMax8Generic(want, tmp)
		}
		if !rowsEqual(eng.Row(v), want) {
			t.Fatalf("vertex %d: wave row differs from direct fold", v)
		}
	}
}

// TestCollectRejectsShapeMismatch: a sample arena sized for a different
// vertex count must be rejected, not silently re-shaped.
func TestCollectRejectsShapeMismatch(t *testing.T) {
	h := graph.MustGNP(50, 0.1, graph.NewRand(3))
	cg := testCG(t, h, 1)
	var samples, out Arena[int8]
	samples.Reset(10, 32)
	if _, err := Collect(cg, "bad", MaxKernel{}, &samples, &out, CollectOptions{}); err == nil {
		t.Fatal("Collect accepted a sample arena with the wrong row count")
	}
}
