package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"clustercolor/internal/parwork"
)

// NewRand returns a deterministic PCG-backed random source for the given
// seed. All generators in this package take an explicit *rand.Rand so that
// experiments are reproducible.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// validProb reports whether p is a probability in [0,1]. NaN fails every
// comparison, so the check must be written positively: a bare
// "p < 0 || p > 1" lets NaN through and silently degenerates the output.
func validProb(p float64) bool {
	return p >= 0 && p <= 1
}

// GNP samples an Erdős–Rényi graph G(n, p) in O(n + m) expected time by
// geometric skip sampling (Batagelj–Brandes): instead of flipping a coin per
// pair, it jumps between successful pairs with geometrically distributed
// strides, so million-vertex sparse instances cost seconds, not hours.
//
// GNP draws exactly one rng.Float64() per edge, plus the one draw that
// jumps past the last pair, in the order of a serial loop; a caller that
// keeps drawing from rng afterwards sees the same values at every worker
// count. The skips and the pairs they land on are computed on
// min(parwork.Parallelism(), m/32768) workers for an expected edge count m,
// and Build splits its scatter the same way (see Builder.Build), so the CSR
// is identical at every worker count.
//
// An instance whose edge count would pass the builder's ~2³⁰-edge cap is
// an error before anything is drawn or allocated: GNP refuses it when the
// mean edge count minus six standard deviations passes the cap, which is
// exact for p = 1. Between that and the cap, the cap error comes when the
// draws reach it. n past 2³¹, the int32 vertex id range, is an error too.
func GNP(n int, p float64, rng *rand.Rand) (*Graph, error) {
	if err := validGNP(n, p); err != nil {
		return nil, err
	}
	b := NewBuilder(n)
	if err := gnpInto(b, 0, n, p, rng); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// validGNP checks GNP's and GNPStream's parameters.
func validGNP(n int, p float64) error {
	if n < 0 {
		return fmt.Errorf("graph: GNP n %d < 0", n)
	}
	if int64(n) > gnpMaxN {
		return fmt.Errorf("graph: GNP n %d exceeds the int32 vertex id range", n)
	}
	if !validProb(p) {
		return fmt.Errorf("graph: GNP p %v out of [0,1]", p)
	}
	return nil
}

// MustGNP is GNP for compile-time-constant parameters (tests, benchmarks,
// examples); it panics on the errors GNP would return.
func MustGNP(n int, p float64, rng *rand.Rand) *Graph {
	g, err := GNP(n, p, rng)
	if err != nil {
		panic(err)
	}
	return g
}

// gnpInto adds the edges of G(hi-lo, p) on the vertex window [lo, hi) of b.
// p must already be validated to [0,1]. The Binomial(k(k−1)/2, p) edge count
// decides two things before the first draw: a mean − 6σ past the edge cap
// is an error, and otherwise b's pair buffer is reserved for mean + 6σ, so
// it is allocated once instead of regrown and copied as edges arrive (a
// total past the cap reserves nothing, and the cap error comes if it is
// hit).
func gnpInto(b *Builder, lo, hi int, p float64, rng *rand.Rand) error {
	if int64(hi) > gnpMaxN {
		return fmt.Errorf("graph: G(n, p) on [%d, %d) exceeds the int32 vertex id range", lo, hi)
	}
	k := float64(hi - lo)
	mean := k * (k - 1) / 2 * p
	spread := 6 * math.Sqrt(mean*(1-p))
	have := float64(len(b.edges))
	if have+mean-spread > maxBuilderEdges {
		return fmt.Errorf("graph: G(%d, %v) expects %.0f edges, past the %d-edge CSR capacity", hi-lo, p, mean, maxBuilderEdges)
	}
	if want := have + math.Ceil(mean+spread); want <= maxBuilderEdges {
		b.edges = slices.Grow(b.edges, int(want)-len(b.edges))
	}
	return gnpSample(hi-lo, p, rng, gnpWorkers(hi-lo, p), gnpChunk, func(pairs []uint64) error {
		return b.addPairs(pairs, lo)
	})
}

// gnpMaxN is the most vertices the skip sampler takes: ids must fit the
// CSR's int32 and the halves of a packed pair.
const gnpMaxN = 1 << 31

// gnpChunk is the most draws gnpSample holds between two parallel passes
// (256 KB of float64 and as much of packed pairs), and the fewest expected
// edges per sampling worker: below it a goroutine's start-up outweighs its
// share of the logarithms.
const gnpChunk = 1 << 15

// gnpWorkers returns min(parwork.Parallelism(), m/gnpChunk), at least 1,
// for the expected edge count m of G(n, p).
func gnpWorkers(n int, p float64) int {
	workers := parwork.Parallelism()
	if w := float64(n) * float64(n-1) / 2 * p / gnpChunk; w < float64(workers) {
		workers = max(1, int(w))
	}
	return workers
}

// gnpPairs enumerates the edges of G(n, p), calling visit(v, w), w < v, once
// per edge in row order. Both the materialized generator and the streaming
// emitter run through gnpSample, so for the same rng state they produce the
// same edge sequence and leave rng at the same position: one rng.Float64()
// per edge plus the terminating draw, in order. The skips are computed on
// min(parwork.Parallelism(), m/gnpChunk) workers for an expected edge count
// m, and visit is called serially. When visit returns an error, the rng's
// position is unspecified.
func gnpPairs(n int, p float64, rng *rand.Rand, visit func(v, w int) error) error {
	return gnpSample(n, p, rng, gnpWorkers(n, p), gnpChunk, func(pairs []uint64) error {
		for _, e := range pairs {
			if err := visit(int(uint32(e)), int(e>>32)); err != nil {
				return err
			}
		}
		return nil
	})
}

// gnpSample samples G(n, p), n ≤ gnpMaxN, by geometric skip sampling on
// workers goroutines and passes emit its edges in row order, a chunk at a
// time, each packed w<<32 | v with w < v. It takes exactly one
// rng.Float64() per edge plus the terminating draw, in order, at every
// worker count and chunk size; tests force small ones. When emit returns an
// error, the rng's position is unspecified.
//
// Batagelj–Brandes enumerates the pairs (v, w), w < v, in row order, at
// positions v(v−1)/2 + w, and jumps ⌊ln(1−u)/ln(1−p)⌋ positions past each
// edge for a fresh uniform u; the draw that jumps past the last pair ends
// the walk. Draws are taken serially, each adding a guaranteed upper bound
// on its skip to an upper bound on the position: Float64 returns a multiple
// of 2⁻⁵³, so 1−u is exact, and for 1−u in [2⁻ᵏ, 2¹⁻ᵏ) the skip is at most
// k·ln 2/−ln(1−p). A chunk ends when it holds chunk draws or when its last
// draw might end the walk, so every other draw in it is provably an edge.
// The workers then compute the chunk's exact skips and their sums, and,
// from each part's absolute start position, the pairs.
func gnpSample(n int, p float64, rng *rand.Rand, workers, chunk int, emit func(pairs []uint64) error) error {
	if n < 2 || p == 0 {
		return nil
	}
	if p == 1 {
		row := make([]uint64, 0, n-1)
		for u := 0; u < n-1; u++ {
			row = row[:0]
			for v := u + 1; v < n; v++ {
				row = append(row, uint64(u)<<32|uint64(v))
			}
			if err := emit(row); err != nil {
				return err
			}
		}
		return nil
	}
	logq := math.Log1p(-p)
	inv := 1 / logq
	pairs := float64(n) * float64(n) // loose bound on remaining positions
	last := int64(n)*int64(n-1)/2 - 1
	// bound[k] exceeds the skip of any u with 1−u in [2⁻ᵏ, 2¹⁻ᵏ), k ≤ 53.
	// The 1e-9 margin covers the rounding of the logarithm and the division
	// many times over. A bound past the last pair saturates there, so with
	// a tiny p (ln 2/−ln(1−p) past the pair count) every draw but u = 0 ends
	// its chunk, and the position sum cannot overflow.
	var bound [54]int64
	perBit := math.Ln2 / -logq * (1 + 1e-9)
	for k := range bound {
		if b := float64(k)*perBit + 1; b < float64(last+1) {
			bound[k] = int64(b)
		} else {
			bound[k] = last + 1
		}
	}
	hint := chunk
	if m := float64(last+1)*p + 1; m < float64(chunk) {
		hint = int(m)
	}
	us := make([]float64, 0, hint) // the chunk's draws, then its skips
	var out []uint64
	at := make([]int64, workers+1) // each part's start position, then the chunk's end
	prev := int64(-1)              // position of the last edge emitted
	for {
		us = us[:0]
		for pos := prev; len(us) < chunk; {
			u := rng.Float64()
			us = append(us, u)
			pos += 1 + bound[1023-math.Float64bits(1-u)>>52]
			if pos > last {
				break // this draw may jump past the last pair
			}
		}
		parts := min(workers, len(us))
		forEachPart(parts, func(j int) {
			lo, hi := parwork.ChunkBoundsIn(len(us), parts, j)
			adv := int64(0)
			for i := lo; i < hi; i++ {
				s := gnpSkip(us[i], logq, inv)
				us[i] = s
				if s < pairs {
					adv += 1 + int64(s)
				}
			}
			at[j+1] = adv
		})
		at[0] = prev
		for j := 1; j <= parts; j++ {
			at[j] += at[j-1]
		}
		edges, done := len(us), false
		if us[len(us)-1] >= pairs || at[parts] > last {
			edges, done = edges-1, true // the last draw jumped past every pair
		}
		if len(out) < edges {
			out = make([]uint64, len(us))
		}
		forEachPart(parts, func(j int) {
			lo, hi := parwork.ChunkBoundsIn(len(us), parts, j)
			v, w := pairAt(at[j])
			for i := lo; i < min(hi, edges); i++ {
				w += 1 + int64(us[i])
				for w >= v {
					w -= v
					v++
				}
				out[i] = uint64(w)<<32 | uint64(v)
			}
		})
		if err := emit(out[:edges]); err != nil {
			return err
		}
		if done {
			return nil
		}
		prev = at[parts]
	}
}

// gnpSkip returns the skip of draw u, math.Floor(math.Log1p(-u) / logq),
// for u in [0, 1) and inv = 1/logq. It first takes math.Log(1−u)·inv (1−u
// is exact), at about half the reference's cost, and recomputes the
// reference whenever that value is not finite or lies within 1e-9 relative
// of an integer: both are within a few ulps of the exact ratio, so their
// floors can differ only there.
func gnpSkip(u, logq, inv float64) float64 {
	s := math.Log(1-u) * inv
	if f := math.Floor(s); s-f >= 1e-9*s && f+1-s >= 1e-9*s {
		return f
	}
	return math.Floor(math.Log1p(-u) / logq)
}

// pairAt returns the pair (v, w), w < v, at row-order position
// pos = v(v−1)/2 + w, or (1, −1) for pos = −1, the position before the
// first pair.
func pairAt(pos int64) (v, w int64) {
	if pos < 0 {
		return 1, -1
	}
	v = int64((1 + math.Sqrt(1+8*float64(pos))) / 2)
	for v*(v-1)/2 > pos {
		v--
	}
	for v*(v+1)/2 <= pos {
		v++
	}
	return v, pos - v*(v-1)/2
}

// GNPStream returns a re-runnable EdgeStream of G(n, p): each invocation
// replays the identical edge sequence from a fresh NewRand(seed), so
// GNPStream(n, p, seed) feeding streaming shard construction yields slices
// byte-identical to partitioning GNP(n, p, NewRand(seed)) — while never
// requiring the global CSR, which is what lets instances past the global
// builder cap be generated shard-by-shard.
func GNPStream(n int, p float64, seed uint64) (EdgeStream, error) {
	if err := validGNP(n, p); err != nil {
		return nil, err
	}
	return func(emit func(u, v int) error) error {
		return gnpPairs(n, p, NewRand(seed), emit)
	}, nil
}

// CliqueFits reports whether K_n fits the builder's edge capacity; callers
// that must not panic (CLIs, servers) should check it before Clique.
// n < 65536 keeps the product overflow-free; anything larger is past the
// cap on its own.
func CliqueFits(n int) bool {
	return n < 65536 && (n < 2 || int64(n)*int64(n-1)/2 <= maxBuilderEdges)
}

// Clique returns the complete graph K_n. It panics if n(n-1)/2 exceeds the
// builder's edge capacity (n > ~46000, see CliqueFits): such a graph cannot
// be represented in the int32 CSR arrays, and truncating it silently would
// be worse.
func Clique(n int) *Graph {
	if !CliqueFits(n) {
		panic(fmt.Sprintf("graph: Clique(%d) exceeds the %d-edge CSR capacity", n, maxBuilderEdges))
	}
	b := NewBuilder(n)
	b.reserve(int64(n) * int64(n-1) / 2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			_ = b.AddEdge(u, v) // in-range, distinct, capacity pre-checked: cannot fail
		}
	}
	return b.Build()
}

// Path returns the path graph on n vertices.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(v-1, v)
	}
	return b.Build()
}

// Cycle returns the cycle graph on n vertices. For n >= 3 this is C_n; for
// n = 2 the "cycle" collapses to the single edge {0,1} (simple graphs have
// no parallel edges), and for n <= 1 the graph is edgeless.
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(v-1, v)
	}
	if n >= 3 {
		_ = b.AddEdge(n-1, 0)
	}
	return b.Build()
}

// Star returns the star graph with center 0 and n-1 leaves.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(0, v)
	}
	return b.Build()
}

// RandomTree returns a uniform-ish random tree on n vertices (each vertex
// v >= 1 attaches to a uniform earlier vertex).
func RandomTree(n int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(rng.IntN(v), v)
	}
	return b.Build()
}

// RandomGeometric samples n points uniformly in the unit square and
// connects pairs within Euclidean distance radius — the standard model of
// wireless interference networks, the motivating workload for distance-2
// coloring (Corollary 1.3). It returns the graph and the point coordinates.
//
// Pairs are found by bucketing points into a uniform grid with cells no
// smaller than the radius and comparing each point only against the 3×3
// surrounding cells, for O(n + m) expected time instead of Θ(n²).
func RandomGeometric(n int, radius float64, rng *rand.Rand) (*Graph, [][2]float64, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("graph: RandomGeometric n %d < 0", n)
	}
	if math.IsNaN(radius) || math.IsInf(radius, 0) || radius < 0 {
		return nil, nil, fmt.Errorf("graph: RandomGeometric radius %v invalid (want finite >= 0)", radius)
	}
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	b := NewBuilder(n)
	if radius == 0 || n < 2 {
		return b.Build(), pts, nil
	}
	// Grid dimension: cells must be at least radius wide (so neighbors are
	// confined to the 3×3 block), and at most ~√n per side (so the grid
	// itself stays O(n) even for tiny radii).
	dim := 1
	if radius < 1 {
		// Compare in float before converting: for tiny radii 1/radius
		// overflows the int conversion (implementation-defined, negative on
		// amd64), which would skip the cap and degrade to one Θ(n²) cell.
		if cap := int(math.Sqrt(float64(n))) + 1; 1/radius > float64(cap) {
			dim = cap
		} else {
			dim = int(1 / radius)
		}
		// 1/radius can round up to exactly dim, leaving cells one ulp
		// narrower than radius and a pair two cells apart but within range.
		for dim > 1 && 1/float64(dim) < radius {
			dim--
		}
		if dim < 1 {
			dim = 1
		}
	}
	cellOf := make([]int32, n)
	counts := make([]int32, dim*dim+1)
	for i, pt := range pts {
		gx := int(pt[0] * float64(dim))
		gy := int(pt[1] * float64(dim))
		if gx >= dim {
			gx = dim - 1
		}
		if gy >= dim {
			gy = dim - 1
		}
		c := int32(gx*dim + gy)
		cellOf[i] = c
		counts[c+1]++
	}
	for c := 0; c < dim*dim; c++ {
		counts[c+1] += counts[c]
	}
	bucket := make([]int32, n) // point ids grouped by cell, ascending within a cell
	cursor := make([]int32, dim*dim)
	copy(cursor, counts[:dim*dim])
	for i := 0; i < n; i++ {
		c := cellOf[i]
		bucket[cursor[c]] = int32(i)
		cursor[c]++
	}
	r2 := radius * radius
	for u := 0; u < n; u++ {
		cu := int(cellOf[u])
		gx, gy := cu/dim, cu%dim
		for dx := -1; dx <= 1; dx++ {
			x := gx + dx
			if x < 0 || x >= dim {
				continue
			}
			for dy := -1; dy <= 1; dy++ {
				y := gy + dy
				if y < 0 || y >= dim {
					continue
				}
				c := x*dim + y
				for _, v := range bucket[counts[c]:counts[c+1]] {
					if int(v) <= u {
						continue
					}
					ddx := pts[u][0] - pts[v][0]
					ddy := pts[u][1] - pts[v][1]
					if ddx*ddx+ddy*ddy <= r2 {
						if err := b.AddEdge(u, int(v)); err != nil {
							return nil, nil, err
						}
					}
				}
			}
		}
	}
	return b.Build(), pts, nil
}

// PlantedACDSpec describes a synthetic instance with a known almost-clique
// decomposition: NumCliques dense blocks of CliqueSize vertices each, where a
// DropFraction of internal edges is removed (creating anti-edges), each dense
// vertex gets about ExternalDegree edges leaving its block, and SparseN
// additional vertices form a sparse G(n, SparseP) region attached to the
// dense blocks.
//
// This is the workload shape the paper's analysis revolves around: dense
// almost-cliques (cabals when ExternalDegree is small) embedded in a sparser
// graph.
type PlantedACDSpec struct {
	NumCliques     int
	CliqueSize     int
	DropFraction   float64
	ExternalDegree int
	SparseN        int
	SparseP        float64
}

// Validate checks the spec's fields, rejecting NaN and out-of-range values
// that would otherwise silently degenerate the instance (a NaN DropFraction
// fails every ">=" comparison and used to drop every dense edge).
func (spec PlantedACDSpec) Validate() error {
	if spec.NumCliques < 0 || spec.CliqueSize < 0 || spec.SparseN < 0 {
		return fmt.Errorf("graph: negative size in spec %+v", spec)
	}
	if spec.ExternalDegree < 0 {
		return fmt.Errorf("graph: ExternalDegree %d < 0", spec.ExternalDegree)
	}
	if !(spec.DropFraction >= 0 && spec.DropFraction < 1) {
		return fmt.Errorf("graph: DropFraction %v out of [0,1)", spec.DropFraction)
	}
	if !validProb(spec.SparseP) {
		return fmt.Errorf("graph: SparseP %v out of [0,1]", spec.SparseP)
	}
	return nil
}

// PlantedACD generates the instance described by spec. It returns the graph
// and the planted block label per vertex (-1 for sparse vertices).
func PlantedACD(spec PlantedACDSpec, rng *rand.Rand) (*Graph, []int, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	denseN := spec.NumCliques * spec.CliqueSize
	n := denseN + spec.SparseN
	b := NewBuilder(n)
	// The dense blocks keep a binomial share of their pairs: reserve six
	// deviations above the mean, as G(n, p) does. (ExternalDegree only
	// bounds the external edges: draws inside a vertex's own block are
	// skipped, so it can overstate them by far.)
	blockPairs := float64(spec.NumCliques) * float64(spec.CliqueSize) * float64(spec.CliqueSize-1) / 2
	kept := blockPairs * (1 - spec.DropFraction)
	b.reserve(int64(math.Ceil(kept + 6*math.Sqrt(kept*spec.DropFraction))))
	blocks := make([]int, n)
	for i := range blocks {
		blocks[i] = -1
	}
	// Dense blocks with dropped edges.
	for c := 0; c < spec.NumCliques; c++ {
		base := c * spec.CliqueSize
		for i := 0; i < spec.CliqueSize; i++ {
			blocks[base+i] = c
			for j := i + 1; j < spec.CliqueSize; j++ {
				if rng.Float64() >= spec.DropFraction {
					if err := b.AddEdge(base+i, base+j); err != nil {
						return nil, nil, err
					}
				}
			}
		}
	}
	// External edges between blocks (and into the sparse part if present).
	// Repeat draws of the same pair are buffered and merged at Build.
	if spec.NumCliques > 1 || spec.SparseN > 0 {
		for v := 0; v < denseN; v++ {
			for k := 0; k < spec.ExternalDegree; k++ {
				u := rng.IntN(n)
				if u == v || blocks[u] == blocks[v] {
					continue
				}
				if err := b.AddEdge(v, u); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	// Sparse region.
	if err := gnpInto(b, denseN, n, spec.SparseP, rng); err != nil {
		return nil, nil, err
	}
	return b.Build(), blocks, nil
}

// CabalSpec describes the simplified Section 2.4 setting: NumCliques blocks
// that are (S − r)-cliques of size S where every vertex has about R external
// neighbors in other blocks. With small R these blocks are cabals.
type CabalSpec struct {
	NumCliques int
	CliqueSize int
	External   int
}

// PlantedCabals generates near-disjoint cliques with R external edges per
// vertex, the setting used to evaluate put-aside coloring (Proposition 4.19).
func PlantedCabals(spec CabalSpec, rng *rand.Rand) (*Graph, []int, error) {
	return PlantedACD(PlantedACDSpec{
		NumCliques:     spec.NumCliques,
		CliqueSize:     spec.CliqueSize,
		ExternalDegree: spec.External,
	}, rng)
}

// BarabasiAlbert grows a preferential-attachment power-law graph: vertices
// arrive one at a time and attach to attach distinct existing vertices
// chosen proportionally to degree (the first vertices attach to all earlier
// ones). The result has heavy-tailed degrees — the hub-and-spoke scenario
// complementing GNP's concentrated degrees — and costs O(n · attach).
func BarabasiAlbert(n, attach int, rng *rand.Rand) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: BarabasiAlbert n %d < 0", n)
	}
	if attach < 1 {
		return nil, fmt.Errorf("graph: BarabasiAlbert attach %d < 1", attach)
	}
	if n > 0 && attach >= n {
		return nil, fmt.Errorf("graph: BarabasiAlbert attach %d >= n %d", attach, n)
	}
	b := NewBuilder(n)
	// repeats holds every edge endpoint once; sampling an index uniformly is
	// exactly degree-proportional sampling.
	repeats := make([]int32, 0, 2*attach*n)
	chosen := make([]int32, 0, attach)
	for v := 1; v < n; v++ {
		chosen = chosen[:0]
		if v <= attach {
			for u := 0; u < v; u++ {
				chosen = append(chosen, int32(u))
			}
		} else {
			for len(chosen) < attach {
				u := repeats[rng.IntN(len(repeats))]
				dup := false
				for _, c := range chosen {
					if c == u {
						dup = true
						break
					}
				}
				if !dup {
					chosen = append(chosen, u)
				}
			}
		}
		for _, u := range chosen {
			if err := b.AddEdge(int(u), v); err != nil {
				return nil, err
			}
			repeats = append(repeats, u, int32(v))
		}
	}
	return b.Build(), nil
}

// RandomRegular samples a d-regular graph on n vertices via the pairing
// (configuration) model: d stubs per vertex are shuffled and matched, pairs
// that would create self-loops or parallel edges are thrown back, and the
// whole construction restarts on the (rare) dead end where only unsuitable
// pairs remain. n·d must be even and d < n.
func RandomRegular(n, d int, rng *rand.Rand) (*Graph, error) {
	if n < 0 || d < 0 {
		return nil, fmt.Errorf("graph: RandomRegular n %d, d %d must be >= 0", n, d)
	}
	if d >= n && d > 0 {
		return nil, fmt.Errorf("graph: RandomRegular d %d >= n %d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular n·d = %d·%d is odd", n, d)
	}
	if d == 0 {
		return NewBuilder(n).Build(), nil
	}
	const maxRestarts = 100
	for attempt := 0; attempt < maxRestarts; attempt++ {
		b := NewBuilder(n)
		seen := make(map[uint64]struct{}, n*d/2)
		stubs := make([]int32, 0, n*d)
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, int32(v))
			}
		}
		for len(stubs) > 0 {
			rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
			leftover := stubs[:0:0]
			for i := 0; i+1 < len(stubs); i += 2 {
				u, v := stubs[i], stubs[i+1]
				lo, hi := u, v
				if lo > hi {
					lo, hi = hi, lo
				}
				key := uint64(lo)<<32 | uint64(hi)
				if u == v {
					leftover = append(leftover, u, v)
					continue
				}
				if _, dup := seen[key]; dup {
					leftover = append(leftover, u, v)
					continue
				}
				seen[key] = struct{}{}
				if err := b.AddEdge(int(u), int(v)); err != nil {
					return nil, err
				}
			}
			if len(leftover) == len(stubs) {
				break // no progress: only unsuitable pairs remain, restart
			}
			stubs = leftover
		}
		if len(stubs) == 0 {
			return b.Build(), nil
		}
	}
	return nil, fmt.Errorf("graph: RandomRegular(%d, %d) failed to realize after %d restarts", n, d, maxRestarts)
}

// RingOfCliques returns numCliques cliques of cliqueSize vertices arranged
// in a ring, consecutive cliques joined by a single edge (the last vertex of
// one to the first vertex of the next). It is the canonical
// high-local-density / low-expansion stress shape: every block is an
// almost-clique, yet global information must cross single-edge bridges.
// With cliqueSize = 1 it degenerates to the cycle C_numCliques.
func RingOfCliques(numCliques, cliqueSize int) (*Graph, error) {
	if numCliques < 0 || cliqueSize < 1 {
		return nil, fmt.Errorf("graph: RingOfCliques needs numCliques >= 0 and cliqueSize >= 1, got %d, %d", numCliques, cliqueSize)
	}
	// Capacity: reject instances whose edges cannot fit the int32 CSR cap
	// before buffering gigabytes of endpoints (cliqueSize < 65536 keeps the
	// per-clique product overflow-free; larger cliques are past the cap on
	// their own, and the bound is conservative by one ring link per clique).
	if numCliques > 0 {
		perClique := int64(cliqueSize)*int64(cliqueSize-1)/2 + 1
		if cliqueSize >= 65536 || int64(numCliques) > int64(maxBuilderEdges)/perClique {
			return nil, fmt.Errorf("graph: RingOfCliques(%d, %d) exceeds the %d-edge CSR capacity", numCliques, cliqueSize, maxBuilderEdges)
		}
	}
	n := numCliques * cliqueSize
	b := NewBuilder(n)
	b.reserve(int64(numCliques) * (int64(cliqueSize)*int64(cliqueSize-1)/2 + 1))
	for c := 0; c < numCliques; c++ {
		base := c * cliqueSize
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				_ = b.AddEdge(base+i, base+j) // in-range, distinct, capacity pre-checked: cannot fail
			}
		}
	}
	if numCliques >= 2 {
		for c := 0; c < numCliques; c++ {
			u := c*cliqueSize + cliqueSize - 1
			v := ((c + 1) % numCliques) * cliqueSize
			if u != v {
				_ = b.AddEdge(u, v) // k=2, size=1 draws {0,1} twice; Build merges it
			}
		}
	}
	return b.Build(), nil
}
