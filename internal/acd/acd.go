// Package acd computes the ε-almost-clique decomposition of Definition 4.2
// on cluster graphs, following Section 5.4: fingerprint-approximated degrees
// and joint-neighborhood sizes solve the ξ-buddy predicate (Lemma 5.8),
// buddy-edge connected components form the almost-cliques (Proposition 4.3),
// and a further fingerprint wave estimates external degrees to classify
// cabals (Section 4.1).
//
// The decomposition is the pipeline's first stage and has one
// implementation, on the partitioned substrate of internal/shard: sample and
// sketch rows live in per-slice arenas generated from per-vertex
// parwork.RowSeed streams, the waves fold over each slice's local CSR on the
// slice's worker-pool share (the max kernel's merge is commutative and
// idempotent, so every shard count and parallelism level produces
// byte-identical output), and the buddy predicate is memoized into a packed
// bitmap keyed by local directed slots that the dense classification, the
// component labelling, and the second wave all read for free. The
// decomposition asks its sketches only yes/no questions — is a degree, a
// joint neighborhood or a buddy count past its threshold — and a
// sketch.Cutoff answers each from the raw harmonic statistic, with the same
// answers the inverted estimates would give; only the profile wave, which
// needs ẽ_v itself, estimates. The unsharded entry points (Compute,
// ComputeWith, BuildProfile, BuildProfileWith) run the one-slice partition,
// whose local CSR is the caller's graph. A Workspace owns the reusable
// buffers so repeated decompositions allocate O(1) objects regardless of n.
//
// An exact (centralized) reference decomposition is provided for testing and
// for experiments that need ground truth.
package acd

import (
	"fmt"
	"math"
	"math/rand/v2"

	"clustercolor/internal/cluster"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// Decomposition is an ε-almost-clique decomposition: a partition of the
// vertices into sparse vertices and almost-cliques.
type Decomposition struct {
	// Eps is the ε parameter of Definition 4.2.
	Eps float64
	// CliqueOf maps each vertex to its almost-clique index, -1 if sparse.
	CliqueOf []int
	// Cliques lists the member vertices of each almost-clique.
	Cliques [][]int
}

// IsSparse reports whether v is in V_sparse.
func (d *Decomposition) IsSparse(v int) bool { return d.CliqueOf[v] < 0 }

// Sparsity returns ζ_v of Definition 4.1 computed exactly:
// ζ_v = (1/Δ)·( C(Δ,2) − ½·Σ_{u∈N(v)} |N(u) ∩ N(v)| ).
func Sparsity(g *graph.Graph, v int) float64 {
	delta := float64(g.MaxDegree())
	if delta == 0 {
		return 0
	}
	var shared float64
	for _, u := range g.Neighbors(v) {
		shared += float64(g.CommonNeighbors(v, int(u)))
	}
	return (delta*(delta-1)/2 - shared/2) / delta
}

// Workspace owns the reusable scratch of the decomposition: the one-slice
// engine the unsharded entry points run on (its arenas back Compute's two
// waves and BuildProfile's external-degree wave; each wave refills them from
// an independent seed, so the lemmas' independence requirements hold), the
// per-vertex threshold flags, the packed buddy-edge bitmap, and the
// component-labelling buffers. One Workspace serves one decomposition at a
// time; reusing it across calls (core does, per Color run) keeps allocation
// counts independent of n.
type Workspace struct {
	one    *shard.Engine[int8]
	onePar int // the parallelism one's pool was split from
	// above[v] holds v's latest per-vertex threshold decision: the degree
	// test while the buddy bits are filled, then the dense test.
	above    []bool
	buddy    []uint64
	buddySrc []uint64
	label    []int32
	next     []int32
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// unsharded returns the workspace's one-slice engine over g, rebuilding it
// when g or the parallelism budget changes. The slice aliases g, so the
// engine adds only its arenas. One slice has no boundary, so the exchange
// bookkeeping is dropped per call rather than left to grow.
func (ws *Workspace) unsharded(g *graph.Graph) (*shard.Engine[int8], error) {
	if g == nil {
		return nil, fmt.Errorf("acd: the unsharded decomposition requires a materialized cluster graph")
	}
	if par := parwork.Parallelism(); ws.one == nil || ws.one.SG.G != g || ws.onePar != par {
		sg, err := graph.NewShardedGraph(g, 1)
		if err != nil {
			return nil, err
		}
		ws.one, ws.onePar = shard.NewEngine(sg, sketch.MaxKernel{}), par
	}
	ws.one.ResetStats()
	return ws.one, nil
}

func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Exact computes the decomposition centrally: buddy edges are pairs with
// |N(u) ∩ N(v)| ≥ (1−2ξ)Δ, dense candidates have ≥ (1−2ξ)Δ incident buddy
// edges, and almost-cliques are the connected components of the buddy graph
// restricted to dense candidates ([ACK19, Lemma 4.8] shape). ξ is derived
// from eps.
func Exact(g *graph.Graph, eps float64) (*Decomposition, error) {
	if eps <= 0 || eps >= 1.0/3 {
		return nil, fmt.Errorf("acd: eps %v out of (0, 1/3)", eps)
	}
	xi := eps / 2
	delta := g.MaxDegree()
	buddyDeg := make([]int, g.N())
	isBuddy := func(u, v int) bool {
		return float64(g.CommonNeighbors(u, v)) >= (1-2*xi)*float64(delta)
	}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) > v && isBuddy(v, int(u)) {
				buddyDeg[v]++
				buddyDeg[u]++
			}
		}
	}
	dense := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		dense[v] = float64(buddyDeg[v]) >= (1-2*xi)*float64(delta)
	}
	return assemble(g, eps, dense, isBuddy)
}

// assemble groups dense vertices into almost-cliques via connected
// components of the buddy graph restricted to dense vertices, walking the
// global CSR — the reference assembly Exact runs; the distributed
// decomposition walks its slices instead (assembleSlices).
//
// Components are labeled by deterministic parallel min-label propagation
// with pointer jumping: every pass recomputes labels from an immutable
// snapshot across the worker pool, so the fixpoint — each dense vertex
// labeled by its component's minimum member — is byte-identical at any
// parallelism, and the O(m) edge scans that used to run as one serial BFS
// (the last serial scan in the decomposition) now fan out through parwork.
// Pointer jumping bounds the pass count by O(log n) even on long buddy
// paths, though the diameter-2 components of Proposition 4.3 converge in a
// couple of passes. Cliques are indexed by ascending minimum member (the
// same order the serial BFS produced) with members ascending.
func assemble(g *graph.Graph, eps float64, dense []bool, isBuddy func(v, u int) bool) (*Decomposition, error) {
	n := g.N()
	return assembleFrom(n, eps, dense, nil, func(label, next []int32) (bool, error) {
		// Propagation cost is one edge scan per dense vertex: weight chunk
		// bounds by the offsets array so heavy rows spread across chunks.
		chunks := parwork.RangeChunks(n)
		cum := func(v int) int64 { return int64(g.AdjOffset(v)) + 16*int64(v) }
		changes, err := parwork.ForEach(chunks, func(ci int) (bool, error) {
			lo, hi := parwork.WeightedChunkBounds(n, chunks, ci, cum)
			changed := false
			for v := lo; v < hi; v++ {
				if !dense[v] {
					next[v] = -1
					continue
				}
				m := label[v]
				for _, u32 := range g.Neighbors(v) {
					u := int(u32)
					if dense[u] && label[u] < m && isBuddy(v, u) {
						m = label[u]
					}
				}
				next[v] = m
				if m != label[v] {
					changed = true
				}
			}
			return changed, nil
		})
		if err != nil {
			return false, err
		}
		for _, c := range changes {
			if c {
				return true, nil
			}
		}
		return false, nil
	})
}

// assembleFrom is the graph-shape-independent core of assemble: propagate
// performs one full min-label pass — next[v] must be written for every v
// (the component minimum over v's dense buddy neighborhood, or -1 for
// non-dense v) from the immutable previous labels — and reports whether any
// label moved. next is a pure function of label, so any propagate walking
// the same edge set (global CSR or shard slices) reaches the same fixpoint
// byte for byte.
func assembleFrom(n int, eps float64, dense []bool, ws *Workspace, propagate func(label, next []int32) (bool, error)) (*Decomposition, error) {
	d := &Decomposition{Eps: eps, CliqueOf: make([]int, n)}
	var label, next []int32
	if ws != nil {
		ws.label = grow(ws.label, n)
		ws.next = grow(ws.next, n)
		label, next = ws.label, ws.next
	} else {
		label = make([]int32, n)
		next = make([]int32, n)
	}
	if err := parwork.ForRange(n, func(lo, hi int) error {
		for v := lo; v < hi; v++ {
			if dense[v] {
				label[v] = int32(v)
			} else {
				label[v] = -1
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	chunks := parwork.RangeChunks(n)
	for {
		// Propagate: next[v] = min(label[v], labels of dense buddy
		// neighbors). Reads only the previous labels, writes only next[v].
		changed, err := propagate(label, next)
		if err != nil {
			return nil, err
		}
		// Jump: label[v] = next[next[v]]. A label is always a dense vertex
		// of v's own component, so the hop stays within the component and
		// only shortcuts toward its minimum. Reads only next.
		jumps, err := parwork.ForEach(chunks, func(ci int) (bool, error) {
			lo, hi := parwork.ChunkBoundsIn(n, chunks, ci)
			changed := false
			for v := lo; v < hi; v++ {
				l := next[v]
				if l >= 0 {
					if l2 := next[l]; l2 < l {
						l = l2
						changed = true
					}
				}
				label[v] = l
			}
			return changed, nil
		})
		if err != nil {
			return nil, err
		}
		done := !changed
		for i := range jumps {
			if jumps[i] {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	// Gather: component sizes per root (reusing next as scratch), clique
	// indices for roots with ≥ 2 members in ascending root order, then the
	// member lists — ascending within each clique. Lone dense candidates are
	// not almost-cliques and reclassify as sparse.
	for v := 0; v < n; v++ {
		next[v] = 0
	}
	for v := 0; v < n; v++ {
		if dense[v] {
			next[label[v]]++
		}
	}
	idx := 0
	for v := 0; v < n; v++ {
		if dense[v] && int(label[v]) == v && next[v] >= 2 {
			next[v] = int32(idx)
			idx++
		} else {
			next[v] = -1
		}
	}
	if err := parwork.ForRange(n, func(lo, hi int) error {
		for v := lo; v < hi; v++ {
			if dense[v] {
				d.CliqueOf[v] = int(next[label[v]])
			} else {
				d.CliqueOf[v] = -1
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if idx > 0 {
		d.Cliques = make([][]int, idx)
		for v := 0; v < n; v++ {
			if ci := d.CliqueOf[v]; ci >= 0 {
				d.Cliques[ci] = append(d.Cliques[ci], v)
			}
		}
	}
	return d, nil
}

// Compute runs the distributed decomposition of Proposition 4.3 on a cluster
// graph with a workspace allocated for this call; see ComputeWith.
func Compute(cg *cluster.CG, eps float64, rng *rand.Rand) (*Decomposition, error) {
	return ComputeWith(cg, eps, rng, NewWorkspace())
}

// ComputeWith runs the decomposition in one address space: it is
// ComputeShardedWith on the workspace's one-slice partition of cg.H, whose
// local CSR is cg.H itself. ComputeWith is reentrant as long as workspaces
// are not shared.
func ComputeWith(cg *cluster.CG, eps float64, rng *rand.Rand, ws *Workspace) (*Decomposition, error) {
	se, err := ws.unsharded(cg.H)
	if err != nil {
		return nil, err
	}
	return ComputeShardedWith(cg, se, eps, rng, ws)
}

// ComputeShardedWith runs the distributed decomposition of Proposition 4.3
// on the engine's partition: a fingerprint wave sketches neighborhoods,
// each vertex decides whether its degree passes (1−1.5ξ)Δ, each edge decides
// the buddy predicate locally from the merged sketches of its endpoints
// (Lemma 5.8; memoized into the workspace's packed bitmap by fillBuddyBits),
// a further wave decides which vertices have enough incident buddy edges to
// be dense, and an O(1)-round BFS labels the components. Each slice folds
// its own arenas over its local CSR on its worker-pool share, with
// boundary-exchange phases shipping sample and sketch rows into the halos
// between the waves. All randomness derives from
// one draw of rng through parwork.RowSeed streams keyed by global vertex id,
// and every decision comes from rows the kernel's semilattice merge makes
// independent of the partition, so the decomposition — and the cost-model
// charges, issued once globally per logical wave — is byte-identical at
// every shard count and parallelism level. Cross-shard traffic lands in the
// engine's ExchangeStats.
//
// The engine may partition a graph built from an edge stream (SG.G == nil);
// the cluster graph is then a materialized view over the same vertex count
// or a cluster.NewHeadless view for runs where the global graph never
// exists.
func ComputeShardedWith(cg *cluster.CG, se *shard.Engine[int8], eps float64, rng *rand.Rand, ws *Workspace) (*Decomposition, error) {
	if eps <= 0 || eps >= 1.0/3 {
		return nil, fmt.Errorf("acd: eps %v out of (0, 1/3)", eps)
	}
	sg := se.SG
	if sg.G != nil && sg.G != cg.H {
		return nil, fmt.Errorf("acd: shard engine partitions a different graph")
	}
	if cg.H != nil && cg.H.N() != sg.N() {
		return nil, fmt.Errorf("acd: shard engine partitions %d vertices, cluster graph has %d", sg.N(), cg.H.N())
	}
	n := sg.N()
	delta := float64(sg.MaxDegree())
	seed := rng.Uint64()
	if delta == 0 {
		d := &Decomposition{Eps: eps, CliqueOf: make([]int, n)}
		for v := range d.CliqueOf {
			d.CliqueOf[v] = -1
		}
		return d, nil
	}
	xi := eps / 2
	// The buddy predicate conjoins several noisy sketch decisions, so its
	// sketches use double accuracy (ξ/2) relative to the decision margins.
	t, err := fingerprint.TrialsFor(xi/2, n)
	if err != nil {
		return nil, err
	}
	// Wave 1: per-vertex neighborhood sketches, for the degree test and,
	// merged across each edge, the joint-neighborhood test.
	if err := se.FillSamples(t, parwork.RowSeed(seed, 0), "acd/nbhd"); err != nil {
		return nil, err
	}
	maxBits, err := se.Collect(cg, "acd/nbhd", shard.CollectOptions{})
	if err != nil {
		return nil, err
	}
	// Only vertices whose degree is at least (1−1.5ξ)Δ can have buddies.
	// Every sketch question of the decomposition is a threshold, so each is
	// decided from the raw statistic by a Cutoff, never by an estimate.
	lowCut := sketch.NewCutoff((1 - 1.5*xi) * delta)
	ws.above = grow(ws.above, n)
	if err := decideSlices(se, lowCut, ws.above); err != nil {
		return nil, err
	}
	// Edge exchange: endpoints merge sketches and decide whether
	// |N(u) ∪ N(v)| ≤ (1+1.5ξ)Δ. One H-round with a sketch payload
	// (Lemma 5.8).
	cg.ChargeHRounds("acd/buddy-exchange", 1, maxBits)
	joinCut := sketch.NewCutoff((1 + 1.5*xi) * delta)
	buddy, wordOff, err := fillBuddyBits(se, ws, t,
		func(v int) bool { return ws.above[v] },
		func(sc *sketch.Scratch[int8], s, lv, lu int) bool {
			// A small joint neighborhood means the neighborhoods overlap
			// heavily: a buddy edge. The merged row is never materialized.
			return joinCut.MergedAtMost(&sc.Est, se.OutRowLocal(s, lv), se.OutRowLocal(s, lu))
		})
	if err != nil {
		return nil, err
	}
	isBuddy := func(s, lslot int) bool {
		return buddy[wordOff[s]+(lslot>>6)]&(1<<(lslot&63)) != 0
	}
	// Wave 2 (Proposition 4.3): sketch each vertex's incident buddy edges
	// with the fingerprint counter (Lemma 5.7), reusing the arenas.
	// The dense test sits ~1.5ξ from the count it thresholds and members of
	// one block fail together (their sketches merge nearly the same sample
	// set), so this wave keeps the same doubled accuracy (ξ/2, hence the
	// same t) as the predicate wave rather than Lemma 5.7's bare ξ.
	if err := se.FillSamples(t, parwork.RowSeed(seed, 1), "acd/buddy-count"); err != nil {
		return nil, err
	}
	if _, err := se.Collect(cg, "acd/buddy-count", shard.CollectOptions{
		LocalPred: func(s, lv, lu, lslot int) bool { return isBuddy(s, lslot) },
	}); err != nil {
		return nil, err
	}
	// A vertex is dense when it has at least (1−1.5ξ)Δ buddy edges — the
	// degree test's cut, so its Cutoff serves again. The degree flags are
	// no longer read, so the dense flags overwrite them.
	if err := decideSlices(se, lowCut, ws.above); err != nil {
		return nil, err
	}
	// O(1)-round BFS for leader election in each (diameter-2) component.
	cg.ChargeHRounds("acd/leaders", 3, cg.IDBits())
	return assembleSlices(se, eps, ws.above, isBuddy, ws)
}

// forOwnedRows calls body for every vertex v a slice owns, with v's
// collected row, per slice on its pool share. Each chunk gets its own
// estimator.
func forOwnedRows(se *shard.Engine[int8], body func(est *sketch.MaxEstimator[int8], v int, row []int8)) error {
	_, err := parwork.ForEach(se.SG.NumShards(), func(s int) (struct{}, error) {
		sl := se.SG.Slices[s]
		return struct{}{}, se.Pool(s).ForRange(sl.Own(), func(lo, hi int) error {
			var est sketch.MaxEstimator[int8]
			for lv := lo; lv < hi; lv++ {
				body(&est, sl.Lo+lv, se.OutRowLocal(s, lv))
			}
			return nil
		})
	})
	return err
}

// decideSlices sets out[v] to whether the estimate of v's collected row is
// at least cut's threshold.
func decideSlices(se *shard.Engine[int8], cut *sketch.Cutoff, out []bool) error {
	return forOwnedRows(se, func(est *sketch.MaxEstimator[int8], v int, row []int8) {
		out[v] = cut.AtLeast(est, row)
	})
}

// assembleSlices is assemble over the partition: the propagation pass walks
// every slice's owned rows on its pool share, reading the buddy bit of each
// local directed slot. An owned local row holds the exact global neighbor
// set of its vertex, so next is the same pure function of label as over the
// global CSR and the fixpoint — hence the decomposition — is independent of
// the partition.
func assembleSlices(se *shard.Engine[int8], eps float64, dense []bool, isBuddy func(s, lslot int) bool, ws *Workspace) (*Decomposition, error) {
	sg := se.SG
	return assembleFrom(sg.N(), eps, dense, ws, func(label, next []int32) (bool, error) {
		perShard, err := parwork.ForEach(sg.NumShards(), func(s int) (bool, error) {
			sl := sg.Slices[s]
			own := sl.Own()
			chunks := parwork.RangeChunksAt(own, se.Pool(s).Workers())
			cum := func(v int) int64 { return int64(sl.CSR.AdjOffset(v)) + 16*int64(v) }
			ch := make([]bool, chunks)
			if err := se.Pool(s).ForEach(chunks, func(ci int) error {
				lo, hi := parwork.WeightedChunkBounds(own, chunks, ci, cum)
				changed := false
				for lv := lo; lv < hi; lv++ {
					v := sl.Lo + lv
					if !dense[v] {
						next[v] = -1
						continue
					}
					m := label[v]
					base := sl.CSR.AdjOffset(lv)
					for j, lu := range sl.CSR.Neighbors(lv) {
						u := sl.ToGlobal(int(lu))
						if dense[u] && label[u] < m && isBuddy(s, base+j) {
							m = label[u]
						}
					}
					next[v] = m
					if m != label[v] {
						changed = true
					}
				}
				ch[ci] = changed
				return nil
			}); err != nil {
				return false, err
			}
			for _, c := range ch {
				if c {
					return true, nil
				}
			}
			return false, nil
		})
		if err != nil {
			return false, err
		}
		for _, c := range perShard {
			if c {
				return true, nil
			}
		}
		return false, nil
	})
}

// Validate checks Definition 4.2 structurally: every almost-clique K has
// |K| ≤ (1+eps')Δ and every member has ≥ (1−eps')|K| neighbors inside K. It
// returns the fraction of members violating the degree condition and an
// error if size bounds break. eps' is the tolerance used for checking.
// Membership tests run against one epoch-stamped array shared by all
// cliques (the PR 2 BFS-scratch idiom) instead of a fresh map per clique.
func (d *Decomposition) Validate(g *graph.Graph, epsCheck float64) (violFrac float64, err error) {
	delta := float64(g.MaxDegree())
	total, viol := 0, 0
	inClique := make([]int32, g.N()) // epoch stamp: inClique[v] == i+1 ⇔ v ∈ clique i
	for i, members := range d.Cliques {
		if float64(len(members)) > (1+epsCheck)*delta+1 {
			return 0, fmt.Errorf("acd: clique %d has %d > (1+%v)Δ members", i, len(members), epsCheck)
		}
		epoch := int32(i + 1)
		for _, v := range members {
			inClique[v] = epoch
		}
		for _, v := range members {
			total++
			in := 0
			for _, u := range g.Neighbors(v) {
				if inClique[u] == epoch {
					in++
				}
			}
			if float64(in) < (1-epsCheck)*float64(len(members)) {
				viol++
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(viol) / float64(total), nil
}

// SparseQuality returns the minimum exact sparsity among vertices classified
// sparse (Definition 4.2 requires Ω(ε²Δ)); +Inf when there are none. It
// examines every sparse vertex — O(n·Δ²) worst case; large-instance tests
// should use SparseQualitySampled.
func (d *Decomposition) SparseQuality(g *graph.Graph) float64 {
	return d.SparseQualitySampled(g, 0, 0)
}

// SparseQualitySampled is SparseQuality's documented sampled mode: it
// evaluates the exact sparsity of at most maxSamples sparse vertices, chosen
// uniformly (deterministically from seed), and returns their minimum —
// a one-sided estimate that upper-bounds SparseQuality but costs
// O(maxSamples·Δ²) instead of O(n·Δ²). maxSamples ≤ 0 checks every sparse
// vertex. Evaluation fans across the worker pool; the result is independent
// of the parallelism level (min is order-free).
func (d *Decomposition) SparseQualitySampled(g *graph.Graph, maxSamples int, seed uint64) float64 {
	var sparse []int
	for v := 0; v < g.N(); v++ {
		if d.IsSparse(v) {
			sparse = append(sparse, v)
		}
	}
	if maxSamples > 0 && len(sparse) > maxSamples {
		// Partial Fisher–Yates: the prefix is a uniform sample without
		// replacement.
		rng := parwork.StreamRNG(seed)
		for i := 0; i < maxSamples; i++ {
			j := i + rng.IntN(len(sparse)-i)
			sparse[i], sparse[j] = sparse[j], sparse[i]
		}
		sparse = sparse[:maxSamples]
	}
	min := math.Inf(1)
	chunks := parwork.RangeChunks(len(sparse))
	mins, err := parwork.ForEach(chunks, func(ci int) (float64, error) {
		lo, hi := parwork.ChunkBoundsIn(len(sparse), chunks, ci)
		m := math.Inf(1)
		for _, v := range sparse[lo:hi] {
			if z := Sparsity(g, v); z < m {
				m = z
			}
		}
		return m, nil
	})
	if err != nil {
		// The chunk closure never fails; +Inf here would masquerade as a
		// perfect decomposition, so fail loudly if that ever changes.
		panic("acd: sparse-quality scan failed: " + err.Error())
	}
	for _, m := range mins {
		if m < min {
			min = m
		}
	}
	return min
}
