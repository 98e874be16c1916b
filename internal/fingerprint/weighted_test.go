package fingerprint

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/sketch"
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

func TestMaxGeometricOfMatchesExplicitMax(t *testing.T) {
	// Distributional check: CDF of MaxGeometricOf(k) vs the explicit max
	// of k GeometricHalf samples, compared at a few points.
	rng := graph.NewRand(1)
	const samples = 60000
	row := make([]int8, 32)
	for _, k := range []int64{1, 4, 32} {
		direct := make([]int, 40)
		explicit := make([]int, 40)
		for i := 0; i < samples; i++ {
			d := int(MaxGeometricOf(k, rng))
			if d < len(direct) {
				direct[d]++
			}
			Draw(row[:k], rng)
			m := slices.Max(row[:k])
			if int(m) < len(explicit) {
				explicit[int(m)]++
			}
		}
		// Compare CDFs at quartile-ish points.
		cum1, cum2 := 0.0, 0.0
		for y := 0; y < 20; y++ {
			cum1 += float64(direct[y]) / samples
			cum2 += float64(explicit[y]) / samples
			if math.Abs(cum1-cum2) > 0.02 {
				t.Fatalf("k=%d: CDF mismatch at %d: %.3f vs %.3f", k, y, cum1, cum2)
			}
		}
	}
}

func TestMaxGeometricOfZeroWeight(t *testing.T) {
	rng := graph.NewRand(2)
	if got := MaxGeometricOf(0, rng); got != sketch.Empty {
		t.Fatalf("weight 0 contribution = %d, want Empty", got)
	}
	if got := MaxGeometricOf(-3, rng); got != sketch.Empty {
		t.Fatalf("negative weight contribution = %d, want Empty", got)
	}
}

func TestMaxGeometricOfHugeWeight(t *testing.T) {
	// The max of 2^40 geometrics concentrates near 40.
	rng := graph.NewRand(3)
	sum := 0.0
	const reps = 2000
	for i := 0; i < reps; i++ {
		sum += float64(MaxGeometricOf(1<<40, rng))
	}
	mean := sum / reps
	if mean < 38 || mean < 0 || mean > 44 {
		t.Fatalf("mean max of 2^40 geometrics = %.1f, want ≈ 40–41", mean)
	}
}

func TestWeightedSketchEstimatesSum(t *testing.T) {
	// A sketch over parties with weights k_i estimates Σk_i.
	rng := graph.NewRand(4)
	weights := []int64{100, 300, 50, 550}
	var total float64
	for _, k := range weights {
		total += float64(k)
	}
	const trials = 2048
	s := make([]int8, trials)
	for i := range s {
		s[i] = sketch.Empty
	}
	party := make([]int8, trials)
	for _, k := range weights {
		for i := range party {
			party[i] = MaxGeometricOf(k, rng)
		}
		sketch.MergeMax8(s, party)
	}
	var est sketch.MaxEstimator[int8]
	got := est.Estimate(s)
	if got < 0.75*total || got > 1.25*total {
		t.Fatalf("weighted estimate %.0f far from %.0f", got, total)
	}
}

func TestApproxWeightedSumOnCluster(t *testing.T) {
	rng := graph.NewRand(5)
	h := graph.MustGNP(100, 0.3, rng)
	cg := testCG(t, h, 7)
	// x_u = u's weight / 2^b with b = 3.
	b := 3
	weights := make([]int64, h.N())
	for v := range weights {
		weights[v] = int64(1 + v%16) // k_u in 1..16 → x_u in 1/8..2
	}
	got, err := ApproxWeightedSum(cg, "wsum", 0.25, b, weights, nil, graph.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for v := 0; v < h.N(); v++ {
		var want float64
		for _, u := range h.Neighbors(v) {
			want += float64(weights[u]) / 8.0
		}
		if want == 0 {
			if got[v] < 0.5 {
				ok++
			}
			continue
		}
		if got[v] > 0.6*want && got[v] < 1.4*want {
			ok++
		}
	}
	if ok < h.N()*85/100 {
		t.Fatalf("only %d/%d weighted sums within 40%%", ok, h.N())
	}
}

func TestApproxWeightedSumWithAlpha(t *testing.T) {
	rng := graph.NewRand(11)
	h := graph.MustGNP(80, 0.3, rng)
	cg := testCG(t, h, 13)
	weights := make([]int64, h.N())
	for v := range weights {
		weights[v] = 8 // x_u = 1 at b = 3
	}
	alpha := func(v, u int) bool { return u%2 == 0 }
	got, err := ApproxWeightedSum(cg, "wsum", 0.25, 3, weights, alpha, graph.NewRand(15))
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for v := 0; v < h.N(); v++ {
		want := 0.0
		for _, u := range h.Neighbors(v) {
			if int(u)%2 == 0 {
				want++
			}
		}
		if want == 0 {
			if got[v] < 0.5 {
				ok++
			}
			continue
		}
		if got[v] > 0.6*want && got[v] < 1.4*want {
			ok++
		}
	}
	if ok < h.N()*85/100 {
		t.Fatalf("only %d/%d filtered weighted sums acceptable", ok, h.N())
	}
}

func TestApproxWeightedSumValidation(t *testing.T) {
	h := graph.Path(3)
	cg := testCG(t, h, 17)
	if _, err := ApproxWeightedSum(cg, "x", 0.2, -1, make([]int64, 3), nil, graph.NewRand(1)); err == nil {
		t.Fatal("negative b accepted")
	}
	if _, err := ApproxWeightedSum(cg, "x", 0.2, 3, make([]int64, 2), nil, graph.NewRand(1)); err == nil {
		t.Fatal("weight count mismatch accepted")
	}
	if _, err := ApproxWeightedSum(cg, "x", 0.2, 3, []int64{1, -2, 1}, nil, graph.NewRand(1)); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// extremeSource is a rand source that cycles a fixed word list — the lever
// that drives MaxGeometricOf's uniform draw to the exact edges of Float64's
// granularity (all-ones → u = 1−2⁻⁵³, the smallest tail; all-zeros → u = 0).
type extremeSource struct {
	vals []uint64
	i    int
}

func (s *extremeSource) Uint64() uint64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

// TestMaxGeometricOfFitsNarrowCells pins the value-range contract the sketch
// package's int8 cells depend on: over every weight up to 10⁸ — the largest
// n the simulations target — the sample is bounded by ⌈53 + log₂k⌉ − 1 ≈ 79
// even at the extreme edges of the uniform draw, well inside
// sketch.MaxCell8, so SaturateCell8 never clamps an organic draw.
func TestMaxGeometricOfFitsNarrowCells(t *testing.T) {
	sources := func() []*extremeSource {
		return []*extremeSource{
			{vals: []uint64{^uint64(0)}},                        // u at the top of Float64's range
			{vals: []uint64{0}},                                 // u = 0
			{vals: []uint64{1}},                                 // subnormal-corner u
			{vals: []uint64{0xfffffffffffff800}},                // max mantissa pattern
			{vals: []uint64{0xdeadbeefcafef00d, ^uint64(0), 0}}, // mixed
		}
	}
	for _, k := range []int64{1, 2, 3, 1000, 1 << 26, 100_000_000} {
		bound := int8(math.Ceil(53+math.Log2(float64(k)))) - 1
		if b := int8(64); k == 1 && bound < b {
			bound = b // k=1 draws trailing zeros: at most 64
		}
		if bound >= sketch.MaxCell8 {
			t.Fatalf("k=%d: analytic bound %d reaches the cell ceiling", k, bound)
		}
		for si, src := range sources() {
			rng := rand.New(src)
			for rep := 0; rep < 64; rep++ {
				y := MaxGeometricOf(k, rng)
				if y < 0 || y > bound {
					t.Fatalf("k=%d source=%d: sample %d outside [0, %d]", k, si, y, bound)
				}
			}
		}
	}
}

// TestApproxDegreesOnCluster: with unit weights and b = 0 the weighted sum
// is Lemma 5.7's approximate degree.
func TestApproxDegreesOnCluster(t *testing.T) {
	rng := graph.NewRand(31)
	h := graph.MustGNP(120, 0.3, rng)
	cg := testCG(t, h, 7)
	ests, err := ApproxWeightedSum(cg, "deg", 0.3, 0, unitWeights(h.N()), nil, graph.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	okCount := 0
	for v := 0; v < h.N(); v++ {
		d := float64(h.Degree(v))
		if d == 0 {
			if ests[v] == 0 {
				okCount++
			}
			continue
		}
		if ests[v] >= 0.6*d && ests[v] <= 1.4*d {
			okCount++
		}
	}
	if okCount < h.N()*9/10 {
		t.Fatalf("only %d/%d degree estimates within 40%%", okCount, h.N())
	}
	if cg.Cost().Rounds() == 0 {
		t.Fatal("no rounds charged")
	}
}

// TestApproxCountWithPredicate: unit weights with a predicate count the
// admitted neighbors (Lemma 5.7 with pred).
func TestApproxCountWithPredicate(t *testing.T) {
	// Count only neighbors with even ids.
	rng := graph.NewRand(33)
	h := graph.MustGNP(150, 0.4, rng)
	cg := testCG(t, h, 8)
	pred := func(v, u int) bool { return u%2 == 0 }
	ests, err := ApproxWeightedSum(cg, "even", 0.3, 0, unitWeights(h.N()), pred, graph.NewRand(10))
	if err != nil {
		t.Fatal(err)
	}
	okCount := 0
	for v := 0; v < h.N(); v++ {
		want := 0
		for _, u := range h.Neighbors(v) {
			if int(u)%2 == 0 {
				want++
			}
		}
		if want == 0 {
			if ests[v] < 1 {
				okCount++
			}
			continue
		}
		if ests[v] >= 0.6*float64(want) && ests[v] <= 1.4*float64(want) {
			okCount++
		}
	}
	if okCount < h.N()*9/10 {
		t.Fatalf("only %d/%d filtered estimates within 40%%", okCount, h.N())
	}
}

func TestApproxCountRejectsBadXi(t *testing.T) {
	cg := testCG(t, graph.Path(3), 1)
	for _, xi := range []float64{0, math.NaN()} {
		if _, err := ApproxWeightedSum(cg, "x", xi, 0, unitWeights(3), nil, graph.NewRand(1)); err == nil {
			t.Fatalf("xi=%v accepted", xi)
		}
	}
}

func unitWeights(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// drawArena draws one fingerprint sample row of t cells per vertex.
func drawArena(n, t int, rng *rand.Rand) *sketch.Arena[int8] {
	var a sketch.Arena[int8]
	a.Reset(n, t)
	for v := 0; v < n; v++ {
		Draw(a.Row(v), rng)
	}
	return &a
}

// TestCollectSketchesMatchBruteForceMaxima: one sketch.Collect wave over
// drawn fingerprint rows (Lemma 5.7's fold) leaves every vertex the
// pointwise max of its neighbors' rows.
func TestCollectSketchesMatchBruteForceMaxima(t *testing.T) {
	rng := graph.NewRand(35)
	h := graph.MustGNP(40, 0.3, rng)
	cg := testCG(t, h, 9)
	samples := drawArena(h.N(), 24, graph.NewRand(11))
	var out sketch.Arena[int8]
	if _, err := sketch.Collect(cg, "x", sketch.MaxKernel{}, samples, &out, sketch.CollectOptions{}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < h.N(); v++ {
		want := make([]int8, 24)
		for i := range want {
			want[i] = sketch.Empty
		}
		for _, u := range h.Neighbors(v) {
			sketch.MergeMax8Generic(want, samples.Row(int(u)))
		}
		for i, w := range want {
			if got := out.Row(v)[i]; got != w {
				t.Fatalf("sketch[%d][%d] = %d, want %d", v, i, got, w)
			}
		}
	}
}

// TestCollectSketchesIncludeSelf: on an edgeless graph, IncludeSelf makes
// each sketch the vertex's own draws; otherwise sketches stay empty.
func TestCollectSketchesIncludeSelf(t *testing.T) {
	h := graph.NewBuilder(4).Build()
	cg := testCG(t, h, 3)
	samples := drawArena(4, 16, graph.NewRand(4))
	var with, without sketch.Arena[int8]
	if _, err := sketch.Collect(cg, "x", sketch.MaxKernel{}, samples, &with, sketch.CollectOptions{IncludeSelf: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := sketch.Collect(cg, "x", sketch.MaxKernel{}, samples, &without, sketch.CollectOptions{}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		for i := 0; i < 16; i++ {
			if with.Row(v)[i] != samples.Row(v)[i] {
				t.Fatalf("IncludeSelf sketch differs from own draws at %d/%d", v, i)
			}
			if without.Row(v)[i] != sketch.Empty {
				t.Fatalf("isolated vertex %d has non-empty sketch", v)
			}
		}
	}
}
