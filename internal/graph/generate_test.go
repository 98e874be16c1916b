package graph

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// edgeFingerprint hashes the full sorted edge list, for pinning generator
// determinism across representation changes.
func edgeFingerprint(g *Graph) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) > v {
				buf[0] = byte(v)
				buf[1] = byte(v >> 8)
				buf[2] = byte(v >> 16)
				buf[3] = byte(v >> 24)
				buf[4] = byte(w)
				buf[5] = byte(w >> 8)
				buf[6] = byte(w >> 16)
				buf[7] = byte(w >> 24)
				h.Write(buf)
			}
		}
	}
	return h.Sum64()
}

func assertSortedAdjacency(t *testing.T, g *Graph) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Fatalf("vertex %d adjacency not strictly sorted: %v", v, nb)
			}
		}
	}
}

func TestGNPValidation(t *testing.T) {
	rng := NewRand(1)
	for _, p := range []float64{math.NaN(), -0.1, 1.1, math.Inf(1)} {
		if _, err := GNP(10, p, rng); err == nil {
			t.Fatalf("GNP accepted p = %v", p)
		}
	}
	if _, err := GNP(-1, 0.5, rng); err == nil {
		t.Fatal("GNP accepted n = -1")
	}
}

// TestGNPRefusesPastCap pins the up-front cap rule: an instance whose mean
// edge count minus six standard deviations passes the builder's cap is an
// error before the first draw, with nothing allocated (it used to buffer
// 2³⁰ packed pairs, 8 GiB, before AddEdge found the cap).
func TestGNPRefusesPastCap(t *testing.T) {
	for _, p := range []float64{1, 0.9} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := GNP(50_000, p, NewRand(1))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("GNP(50000, %v) accepted %v edges past the %d-edge cap", p, 50_000*49_999/2*p, maxBuilderEdges)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("GNP(50000, %v) allocated %d bytes before refusing", p, d)
		}
	}
	// n past the int32 id range is refused before any allocation too (on a
	// 32-bit int it wraps negative, which is refused as well).
	big := int64(1)<<31 + 1
	if _, err := GNP(int(big), 0, NewRand(1)); err == nil {
		t.Fatalf("GNP accepted n = %d", int(big))
	}
	if _, err := GNPStream(int(big), 0, 1); err == nil {
		t.Fatalf("GNPStream accepted n = %d", int(big))
	}
}

// TestGNPMatchesReference runs the sampler against the serial reference
// loop on instances the fuzzer's n ≤ 400 cannot reach: several full chunks
// of a dense half, a p so small that most draws end their chunk, and
// p = 1/n² (TestGoldenGeneratorCSR pins n = 10⁵ deg 64, including the next
// rng value). Each must emit the reference's sequence, build its CSR and
// leave the rng at the reference's next value, through GNP and at forced
// worker counts and chunk sizes.
func TestGNPMatchesReference(t *testing.T) {
	cases := []struct {
		n       int
		p       float64
		workers []int
		chunks  []int
	}{
		{1_000, 0.5, []int{1, 3}, []int{gnpChunk, 1000}},
		{5_000, 1e-9, []int{1, 2}, []int{gnpChunk, 3}},
		{20_000, 1 / (20_000.0 * 20_000), []int{2}, []int{gnpChunk}},
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("n=%d/p=%v", c.n, c.p), func(t *testing.T) {
			seed := uint64(100 + i)
			want := referenceGNP(t, c.n, c.p, seed)
			rng := NewRand(seed)
			g, err := GNP(c.n, c.p, rng)
			if err != nil {
				t.Fatal(err)
			}
			equalGNPRun(t, "GNP", want, gnpRun{seq: want.seq, g: g, next: rng.Uint64()})
			for _, workers := range c.workers {
				for _, chunk := range c.chunks {
					equalGNPRun(t, fmt.Sprintf("%d workers, chunk %d", workers, chunk), want, sampleGNP(t, c.n, c.p, seed, workers, chunk))
				}
			}
		})
	}
}

// TestGNPSkipGuard checks gnpSkip where its fast logarithm and the
// reference can disagree: u within 1–4 steps of 2⁻⁵³ of 1 − q^k, where the
// exact skip ln(1−u)/ln q crosses the integer k, for k up to 10⁶ and a
// spread of p. The guard must send every such u to the reference.
func TestGNPSkipGuard(t *testing.T) {
	const ulp = 1.0 / (1 << 53)
	checked := 0
	for _, p := range []float64{0.5, 0.1, 64 / 400_000.0, 1e-6, 1e-12, 1 - 1e-9} {
		logq := math.Log1p(-p)
		inv := 1 / logq
		for k := 1.0; k <= 1e6; k = math.Max(k+1, math.Floor(k*1.01)) {
			base := math.Round(-math.Expm1(k*logq) / ulp)
			for d := -4.0; d <= 4; d++ {
				u := (base + d) * ulp
				if u < 0 || u >= 1 {
					continue
				}
				if got, want := gnpSkip(u, logq, inv), math.Floor(math.Log1p(-u)/logq); got != want {
					t.Fatalf("p=%v k=%v u=%v: gnpSkip %v, reference %v", p, k, u, got, want)
				}
				checked++
			}
		}
	}
	if checked < 10_000 {
		t.Fatalf("checked %d draws; the grid should reach over 10000", checked)
	}
}

// TestPairAt checks the row-order position inverse at row starts and ends,
// where the float square root can land one row off, up to the 2³¹-vertex
// limit, whose positions pass 2⁶⁰.
func TestPairAt(t *testing.T) {
	if v, w := pairAt(-1); v != 1 || w != -1 {
		t.Fatalf("pairAt(-1) = (%d, %d), want (1, -1)", v, w)
	}
	for _, v := range []int64{1, 2, 3, 7, 1000, 94906265, 94906266, 1 << 30, 3037000499, 1<<31 - 1} {
		for _, w := range []int64{0, 1, v / 2, v - 1} {
			if w >= v {
				continue
			}
			pos := v*(v-1)/2 + w
			if gv, gw := pairAt(pos); gv != v || gw != w {
				t.Fatalf("pairAt(%d) = (%d, %d), want (%d, %d)", pos, gv, gw, v, w)
			}
		}
	}
}

func TestGNPEdgeCases(t *testing.T) {
	rng := NewRand(2)
	for _, n := range []int{0, 1} {
		g, err := GNP(n, 0.7, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != n || g.M() != 0 {
			t.Fatalf("GNP(%d): N,M = %d,%d", n, g.N(), g.M())
		}
	}
	g, err := GNP(40, 0, rng)
	if err != nil || g.M() != 0 {
		t.Fatalf("GNP(p=0): M = %d, err = %v", g.M(), err)
	}
	g, err = GNP(40, 1, rng)
	if err != nil || g.M() != 40*39/2 {
		t.Fatalf("GNP(p=1): M = %d, err = %v; want complete", g.M(), err)
	}
}

func TestGNPDeterministicPerSeed(t *testing.T) {
	a := MustGNP(500, 0.02, NewRand(77))
	b := MustGNP(500, 0.02, NewRand(77))
	if edgeFingerprint(a) != edgeFingerprint(b) {
		t.Fatal("same seed produced different GNP graphs")
	}
	c := MustGNP(500, 0.02, NewRand(78))
	if edgeFingerprint(a) == edgeFingerprint(c) {
		t.Fatal("different seeds produced identical GNP graphs")
	}
	assertSortedAdjacency(t, a)
}

func TestRandomGeometricValidation(t *testing.T) {
	rng := NewRand(3)
	if _, _, err := RandomGeometric(10, math.NaN(), rng); err == nil {
		t.Fatal("NaN radius accepted")
	}
	if _, _, err := RandomGeometric(10, -0.5, rng); err == nil {
		t.Fatal("negative radius accepted")
	}
	if _, _, err := RandomGeometric(10, math.Inf(1), rng); err == nil {
		t.Fatal("infinite radius accepted")
	}
	if _, _, err := RandomGeometric(-1, 0.1, rng); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestRandomGeometricEdgeCases(t *testing.T) {
	rng := NewRand(4)
	for _, n := range []int{0, 1} {
		g, pts, err := RandomGeometric(n, 0.3, rng)
		if err != nil || g.N() != n || len(pts) != n || g.M() != 0 {
			t.Fatalf("n=%d: N=%d M=%d pts=%d err=%v", n, g.N(), g.M(), len(pts), err)
		}
	}
	// radius ≥ √2 covers the whole unit square: complete graph.
	g, _, err := RandomGeometric(30, math.Sqrt2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 30*29/2 {
		t.Fatalf("radius √2: M = %d, want complete %d", g.M(), 30*29/2)
	}
	// radius 0 connects nothing.
	g, _, err = RandomGeometric(30, 0, rng)
	if err != nil || g.M() != 0 {
		t.Fatalf("radius 0: M = %d, err = %v", g.M(), err)
	}
}

func TestRandomGeometricGridMatchesBruteForceAcrossRadii(t *testing.T) {
	// Sweep radii so the bucket grid takes several dimensions, including the
	// single-cell and √n-capped regimes, and compare against the quadratic
	// definition.
	// The Nextafter radii sit one ulp above 1/k, where 1/radius rounds up
	// to exactly k and a naive grid would make cells narrower than radius.
	// 1e-20 exercises the tiny-radius path where 1/radius would overflow
	// an int conversion if not capped in float first.
	for _, radius := range []float64{0.01, 0.07, 0.25, 0.9, 1.5, 1e-20,
		math.Nextafter(1.0/9, 1), math.Nextafter(1.0/17, 1)} {
		g, pts, err := RandomGeometric(120, radius, NewRand(uint64(radius*1000)))
		if err != nil {
			t.Fatal(err)
		}
		r2 := radius * radius
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				dx := pts[u][0] - pts[v][0]
				dy := pts[u][1] - pts[v][1]
				within := dx*dx+dy*dy <= r2
				if g.HasEdge(u, v) != within {
					t.Fatalf("radius %v: edge (%d,%d) = %v, want %v", radius, u, v, g.HasEdge(u, v), within)
				}
			}
		}
		assertSortedAdjacency(t, g)
	}
}

func TestPlantedACDValidation(t *testing.T) {
	rng := NewRand(5)
	bad := []PlantedACDSpec{
		{NumCliques: -1},
		{DropFraction: 1.5},
		{DropFraction: math.NaN()},
		{SparseP: math.NaN(), SparseN: 5},
		{SparseP: -0.2},
		{ExternalDegree: -3},
	}
	for _, spec := range bad {
		if _, _, err := PlantedACD(spec, rng); err == nil {
			t.Fatalf("spec %+v accepted", spec)
		}
	}
}

func TestPlantedACDDuplicateHeavyExternalEdges(t *testing.T) {
	// ExternalDegree far above what distinct endpoints allow: the generator
	// draws the same pairs over and over, and Build must merge them into a
	// simple graph.
	spec := PlantedACDSpec{NumCliques: 3, CliqueSize: 4, ExternalDegree: 100}
	g, blocks, err := PlantedACD(spec, NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 || len(blocks) != 12 {
		t.Fatalf("N = %d", g.N())
	}
	assertSortedAdjacency(t, g)
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += g.Degree(v)
		if g.Degree(v) > g.N()-1 {
			t.Fatalf("vertex %d degree %d exceeds simple-graph bound", v, g.Degree(v))
		}
	}
	if sum != 2*g.M() {
		t.Fatalf("degree sum %d != 2M %d", sum, 2*g.M())
	}
}

func TestCycleSmall(t *testing.T) {
	for _, tt := range []struct{ n, wantM int }{{0, 0}, {1, 0}, {2, 1}, {3, 3}} {
		g := Cycle(tt.n)
		if g.N() != tt.n || g.M() != tt.wantM {
			t.Fatalf("Cycle(%d): N,M = %d,%d; want %d,%d", tt.n, g.N(), g.M(), tt.n, tt.wantM)
		}
	}
}

func TestPowerSemantics(t *testing.T) {
	g := Path(5)
	for _, k := range []int{0, -1} {
		if _, err := g.Power(k); err == nil {
			t.Fatalf("Power(%d) accepted", k)
		}
	}
	p1, err := g.Power(1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.M() != g.M() || p1.N() != g.N() {
		t.Fatalf("Power(1) changed shape: %d,%d", p1.N(), p1.M())
	}
	// Power(k ≥ diameter) of a connected graph is complete.
	p4, err := g.Power(4)
	if err != nil {
		t.Fatal(err)
	}
	if p4.M() != 5*4/2 {
		t.Fatalf("Power(diam) M = %d, want complete", p4.M())
	}
	empty := NewBuilder(0).Build()
	if _, err := empty.Power(2); err != nil {
		t.Fatalf("Power on empty graph: %v", err)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := NewRand(7)
	n, attach := 400, 3
	g, err := BarabasiAlbert(n, attach, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != n {
		t.Fatalf("N = %d", g.N())
	}
	// Exact edge count: vertex v adds min(attach, v) edges.
	wantM := 0
	for v := 1; v < n; v++ {
		if v < attach {
			wantM += v
		} else {
			wantM += attach
		}
	}
	if g.M() != wantM {
		t.Fatalf("M = %d, want %d", g.M(), wantM)
	}
	if _, count := g.ConnectedComponents(); count != 1 {
		t.Fatalf("BA graph has %d components", count)
	}
	// Preferential attachment must produce hubs: Δ well above the attach
	// parameter.
	if g.MaxDegree() < 4*attach {
		t.Fatalf("Δ = %d suspiciously small for preferential attachment", g.MaxDegree())
	}
	assertSortedAdjacency(t, g)
	// Determinism.
	h, err := BarabasiAlbert(n, attach, NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	if edgeFingerprint(g) != edgeFingerprint(h) {
		t.Fatal("same seed produced different BA graphs")
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	rng := NewRand(8)
	if _, err := BarabasiAlbert(10, 0, rng); err == nil {
		t.Fatal("attach 0 accepted")
	}
	if _, err := BarabasiAlbert(5, 5, rng); err == nil {
		t.Fatal("attach >= n accepted")
	}
	if _, err := BarabasiAlbert(-1, 2, rng); err == nil {
		t.Fatal("negative n accepted")
	}
	g, err := BarabasiAlbert(0, 1, rng)
	if err != nil || g.N() != 0 {
		t.Fatalf("BA(0,1) = %v, %v", g, err)
	}
}

func TestRandomRegular(t *testing.T) {
	for _, tt := range []struct{ n, d int }{{50, 4}, {101, 6}, {40, 11}} {
		g, err := RandomRegular(tt.n, tt.d, NewRand(uint64(tt.n)))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != tt.d {
				t.Fatalf("RandomRegular(%d,%d): degree(%d) = %d", tt.n, tt.d, v, g.Degree(v))
			}
		}
		assertSortedAdjacency(t, g)
	}
	// Determinism.
	a, err := RandomRegular(60, 5, NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomRegular(60, 5, NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if edgeFingerprint(a) != edgeFingerprint(b) {
		t.Fatal("same seed produced different regular graphs")
	}
}

func TestRandomRegularValidation(t *testing.T) {
	rng := NewRand(10)
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Fatal("odd n·d accepted")
	}
	if _, err := RandomRegular(4, 4, rng); err == nil {
		t.Fatal("d >= n accepted")
	}
	if _, err := RandomRegular(-1, 2, rng); err == nil {
		t.Fatal("negative n accepted")
	}
	g, err := RandomRegular(7, 0, rng)
	if err != nil || g.M() != 0 {
		t.Fatalf("d=0: M = %d, err = %v", g.M(), err)
	}
}

func TestRingOfCliques(t *testing.T) {
	g, err := RingOfCliques(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 {
		t.Fatalf("N = %d", g.N())
	}
	wantM := 5*(4*3/2) + 5
	if g.M() != wantM {
		t.Fatalf("M = %d, want %d", g.M(), wantM)
	}
	if _, count := g.ConnectedComponents(); count != 1 {
		t.Fatalf("%d components", count)
	}
	// Degenerate shapes.
	if g, err = RingOfCliques(4, 1); err != nil || g.M() != 4 {
		t.Fatalf("RingOfCliques(4,1) = cycle C4: M = %d, err = %v", g.M(), err)
	}
	if g, err = RingOfCliques(2, 1); err != nil || g.M() != 1 {
		t.Fatalf("RingOfCliques(2,1): M = %d (duplicate bridge must merge), err = %v", g.M(), err)
	}
	if g, err = RingOfCliques(1, 6); err != nil || g.M() != 15 {
		t.Fatalf("RingOfCliques(1,6) = K6: M = %d, err = %v", g.M(), err)
	}
	if g, err = RingOfCliques(0, 3); err != nil || g.N() != 0 {
		t.Fatalf("RingOfCliques(0,3): N = %d, err = %v", g.N(), err)
	}
	if _, err = RingOfCliques(3, 0); err == nil {
		t.Fatal("cliqueSize 0 accepted")
	}
	if _, err = RingOfCliques(-1, 2); err == nil {
		t.Fatal("negative numCliques accepted")
	}
	// Capacity guard: over-cap instances error up front instead of
	// silently truncating (these would need > 2^30-1 edges).
	if _, err = RingOfCliques(1<<20, 50); err == nil {
		t.Fatal("over-capacity RingOfCliques accepted")
	}
	if _, err = RingOfCliques(2, 70000); err == nil {
		t.Fatal("over-capacity cliqueSize accepted")
	}
}

func TestCliqueCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-capacity Clique did not panic")
		}
	}()
	Clique(1 << 20) // would need ~2^39 edges; must panic before allocating
}

// TestBuilderOrderIndependence pins the CSR contract: the same edge set
// inserted in any order, with any duplication, builds byte-identical
// adjacency.
func TestBuilderOrderIndependence(t *testing.T) {
	edges := [][2]int{{0, 5}, {2, 3}, {1, 4}, {0, 1}, {3, 5}, {2, 5}, {1, 2}}
	forward := NewBuilder(6)
	for _, e := range edges {
		if err := forward.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	backward := NewBuilder(6)
	for i := len(edges) - 1; i >= 0; i-- {
		// Reversed order AND reversed orientation, plus a duplicate.
		if err := backward.AddEdge(edges[i][1], edges[i][0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := backward.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	a, b := forward.Build(), backward.Build()
	if a.N() != b.N() || a.M() != b.M() || a.MaxDegree() != b.MaxDegree() {
		t.Fatalf("shape mismatch: %d,%d,%d vs %d,%d,%d", a.N(), a.M(), a.MaxDegree(), b.N(), b.M(), b.MaxDegree())
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d adjacency differs: %v vs %v", v, na, nb)
			}
		}
	}
	assertSortedAdjacency(t, a)
}

func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Fatalf("zero value: N=%d M=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
	if _, count := g.ConnectedComponents(); count != 0 {
		t.Fatalf("zero value has %d components", count)
	}
}
