package graph

import (
	"fmt"
	"slices"
	"testing"
)

// equalSliceStructures fails unless the two slices agree on everything
// except the slot map (which only materialized construction can provide):
// bounds, CSR bytes, halo, halo owners, boundary rows, boundary edge count.
func equalSliceStructures(t *testing.T, label string, want, got *ShardSlice) {
	t.Helper()
	if got.Shard != want.Shard || got.Lo != want.Lo || got.Hi != want.Hi {
		t.Fatalf("%s: bounds (%d,[%d,%d)) vs (%d,[%d,%d))", label, got.Shard, got.Lo, got.Hi, want.Shard, want.Lo, want.Hi)
	}
	if !slices.Equal(got.CSR.offsets, want.CSR.offsets) || !slices.Equal(got.CSR.nbrs, want.CSR.nbrs) {
		t.Fatalf("%s: local CSR differs", label)
	}
	if got.CSR.m != want.CSR.m || got.CSR.maxDeg != want.CSR.maxDeg {
		t.Fatalf("%s: local CSR dims (%d,%d) vs (%d,%d)", label, got.CSR.m, got.CSR.maxDeg, want.CSR.m, want.CSR.maxDeg)
	}
	if !slices.Equal(got.Halo, want.Halo) {
		t.Fatalf("%s: halo %v vs %v", label, got.Halo, want.Halo)
	}
	if !slices.Equal(got.HaloOwner, want.HaloOwner) {
		t.Fatalf("%s: halo owners %v vs %v", label, got.HaloOwner, want.HaloOwner)
	}
	if !slices.Equal(got.Boundary, want.Boundary) {
		t.Fatalf("%s: boundary %v vs %v", label, got.Boundary, want.Boundary)
	}
	if got.BoundaryEdges != want.BoundaryEdges {
		t.Fatalf("%s: boundary edges %d vs %d", label, got.BoundaryEdges, want.BoundaryEdges)
	}
}

// equalShardedStructures checks a streamed sharded graph against its
// materialized reference: same partition, dimensions, and slice structures,
// with no global graph on the streamed side.
func equalShardedStructures(t *testing.T, label string, want, got *ShardedGraph) {
	t.Helper()
	if got.G != nil {
		t.Fatalf("%s: streamed graph materialized a global CSR", label)
	}
	if !slices.Equal(got.Starts, want.Starts) {
		t.Fatalf("%s: starts %v vs %v", label, got.Starts, want.Starts)
	}
	if got.N() != want.N() || got.M() != want.M() || got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("%s: dims (n=%d m=%d Δ=%d) vs (n=%d m=%d Δ=%d)", label,
			got.N(), got.M(), got.MaxDegree(), want.N(), want.M(), want.MaxDegree())
	}
	if got.NumShards() != want.NumShards() {
		t.Fatalf("%s: %d shards vs %d", label, got.NumShards(), want.NumShards())
	}
	for s := range want.Slices {
		equalSliceStructures(t, fmt.Sprintf("%s slice %d", label, s), want.Slices[s], got.Slices[s])
	}
}

// streamGraphs builds the scenario spread the streaming construction is
// checked on: GNP, ring-of-cliques (dense blocks spanning shard cuts),
// random-regular, an edgeless graph, and a two-vertex path.
func streamGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	gnp, err := GNP(300, 0.05, NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	roc, err := RingOfCliques(12, 25)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := RandomRegular(200, 6, NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	edgeless := NewBuilder(17).Build()
	pb := NewBuilder(2)
	if err := pb.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{
		"gnp":      gnp,
		"cliques":  roc,
		"regular":  reg,
		"edgeless": edgeless,
		"path":     pb.Build(),
	}
}

// TestStreamingMatchesMaterialized pins the tentpole contract: building
// slices from an edge stream must be byte-identical to partitioning the
// materialized graph, at shard counts 1/2/4 and on uneven explicit
// partitions with empty shards.
func TestStreamingMatchesMaterialized(t *testing.T) {
	for name, g := range streamGraphs(t) {
		n := g.N()
		for _, k := range []int{1, 2, 4} {
			want, err := NewShardedGraph(g, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewShardedGraphFromEdges(n, k, StreamOf(g))
			if err != nil {
				t.Fatal(err)
			}
			equalShardedStructures(t, fmt.Sprintf("%s k=%d", name, k), want, got)
		}
		// Uneven partition with an empty middle shard.
		starts := []int32{0, int32(n / 3), int32(n / 3), int32(n)}
		want, err := ShardedGraphFromStarts(g, starts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ShardedGraphFromEdgeStarts(n, starts, StreamOf(g))
		if err != nil {
			t.Fatal(err)
		}
		equalShardedStructures(t, name+" uneven", want, got)
		// Per-slice passes (the multi-process shape) must agree with the
		// one-pass builder slice for slice.
		for s := range got.Slices {
			sl, err := NewShardSliceFromEdges(n, starts, s, StreamOf(g))
			if err != nil {
				t.Fatal(err)
			}
			equalSliceStructures(t, fmt.Sprintf("%s per-slice %d", name, s), want.Slices[s], sl)
		}
	}
}

// TestGNPStreamMatchesGNP pins the generator contract: the streamed GNP edge
// sequence for a seed is exactly the edge set of GNP under NewRand(seed),
// and re-running the stream replays it.
func TestGNPStreamMatchesGNP(t *testing.T) {
	const n, p, seed = 500, 0.02, uint64(11)
	g, err := GNP(n, p, NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := GNPStream(n, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // second pass checks re-runnability
		b := NewBuilder(n)
		if err := stream(b.AddEdge); err != nil {
			t.Fatal(err)
		}
		sg := b.Build()
		if !slices.Equal(sg.offsets, g.offsets) || !slices.Equal(sg.nbrs, g.nbrs) {
			t.Fatalf("pass %d: streamed GNP differs from materialized GNP", pass)
		}
	}
	if _, err := GNPStream(-1, p, seed); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := GNPStream(n, 1.5, seed); err == nil {
		t.Fatal("p out of range accepted")
	}
}

// TestShardedBuilderValidation checks the builder rejects exactly what
// Builder rejects, plus bad partitions, and that the peak-buffer gauge
// moves.
func TestShardedBuilderValidation(t *testing.T) {
	if _, err := NewShardedBuilder(4, []int32{1, 4}); err == nil {
		t.Fatal("partition not starting at 0 accepted")
	}
	if _, err := NewShardedBuilder(4, []int32{0, 3}); err == nil {
		t.Fatal("partition not covering n accepted")
	}
	if _, err := NewShardedBuilder(4, []int32{0, 3, 2, 4}); err == nil {
		t.Fatal("decreasing partition accepted")
	}
	sb, err := NewShardedBuilder(4, []int32{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := sb.AddEdge(0, 4); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if err := sb.AddEdge(-1, 1); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if err := sb.AddEdge(1, 2); err != nil { // cross-shard: buffered twice
		t.Fatal(err)
	}
	if sb.PeakBufferedEdges() != 1 {
		t.Fatalf("peak %d after one edge, want 1", sb.PeakBufferedEdges())
	}
	sg, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sg.N() != 4 || sg.M() != 1 || sg.MaxDegree() != 1 {
		t.Fatalf("dims n=%d m=%d Δ=%d, want 4/1/1", sg.N(), sg.M(), sg.MaxDegree())
	}
	if sg.NumShards() != 2 || len(sg.Slices[0].Halo) != 1 || len(sg.Slices[1].Halo) != 1 {
		t.Fatalf("cross edge did not produce a one-vertex halo on both sides")
	}
}
