package fingerprint

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"clustercolor/internal/cluster"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/prng"
	"clustercolor/internal/sketch"
)

// fingerprintOf returns the fingerprint of d parties: the pointwise max of
// d rows of t fresh draws each.
func fingerprintOf(d, t int, rng *rand.Rand) []int8 {
	row := make([]int8, t)
	for i := range row {
		row[i] = sketch.Empty
	}
	party := make([]int8, t)
	for j := 0; j < d; j++ {
		Draw(party, rng)
		sketch.MergeMax8(row, party)
	}
	return row
}

// TestSketchMergeIsIdempotentCommutativeAssociative: fingerprints of drawn
// rows merge as a semilattice join — the property that makes them safe to
// aggregate over redundant paths (Section 1.1).
func TestSketchMergeIsIdempotentCommutativeAssociative(t *testing.T) {
	rng := graph.NewRand(1)
	a, b, c := fingerprintOf(5, 32, rng), fingerprintOf(5, 32, rng), fingerprintOf(5, 32, rng)
	merge := func(rows ...[]int8) []int8 {
		out := slices.Clone(rows[0])
		for _, r := range rows[1:] {
			sketch.MergeMax8(out, r)
		}
		return out
	}
	assertEqual(t, merge(a, a), a, "idempotence")
	assertEqual(t, merge(a, b), merge(b, a), "commutativity")
	assertEqual(t, merge(a, b, c), merge(a, merge(b, c)), "associativity")
}

// TestDrawConsumesOneGeometricPerCell pins Draw's RNG contract: cell i holds
// the i-th prng.GeometricHalf draw of the stream, so every consumer that
// moved onto Draw sees the same values in the same order.
func TestDrawConsumesOneGeometricPerCell(t *testing.T) {
	row := make([]int8, 300)
	Draw(row, graph.NewRand(8))
	ref := graph.NewRand(8)
	for i, y := range row {
		if want := prng.GeometricHalf(ref); int(y) != want {
			t.Fatalf("cell %d = %d, want %d", i, y, want)
		}
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// Lemma 5.2: with t = Θ(ξ⁻² log n) trials the estimate is within
	// (1±ξ)d. Check across magnitudes with ξ = 0.25 and generous trials.
	rng := graph.NewRand(2)
	var est sketch.MaxEstimator[int8]
	for _, d := range []int{1, 4, 16, 100, 1000, 20000} {
		t.Run("", func(t *testing.T) {
			got := est.Estimate(fingerprintOf(d, 2048, rng))
			if got < 0.75*float64(d) || got > 1.25*float64(d) {
				t.Fatalf("Estimate for d=%d: %.1f (off by more than 25%%)", d, got)
			}
		})
	}
}

func TestEstimateEmpty(t *testing.T) {
	var est sketch.MaxEstimator[int8]
	if got := est.Estimate(fingerprintOf(0, 64, graph.NewRand(1))); got != 0 {
		t.Fatalf("fingerprint of no parties estimates %v, want 0", got)
	}
	if got := est.Estimate(nil); got != 0 {
		t.Fatalf("zero-length fingerprint estimates %v, want 0", got)
	}
}

func TestTrialsFor(t *testing.T) {
	for _, xi := range []float64{0, 1, -0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := TrialsFor(xi, 100); err == nil {
			t.Fatalf("xi=%v accepted", xi)
		}
	}
	t1, err := TrialsFor(0.5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := TrialsFor(0.1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if t2 <= t1 {
		t.Fatalf("smaller xi should need more trials: %d vs %d", t1, t2)
	}
}

// encodedBits prices a row with the max kernel's deviation encoding.
func encodedBits(row []int8) int {
	return sketch.MaxKernel{}.EncodedBits(row)
}

func assertEqual(t *testing.T, a, b []int8, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d != %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s violated at trial %d: %d != %d", what, i, a[i], b[i])
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := graph.NewRand(3)
	tests := []struct {
		name string
		d    int
		t    int
	}{
		{name: "empty", d: 0, t: 16},
		{name: "single", d: 1, t: 16},
		{name: "small", d: 10, t: 64},
		{name: "large", d: 5000, t: 64},
		{name: "one trial", d: 3, t: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := fingerprintOf(tt.d, tt.t, rng)
			buf := sketch.EncodeDeviation(s)
			got, err := sketch.DecodeDeviation(buf)
			if err != nil {
				t.Fatal(err)
			}
			assertEqual(t, got, s, "round trip")
			if want := encodedBits(s); (want+7)/8 != len(buf) {
				t.Fatalf("EncodedBits=%d but buffer is %d bytes", want, len(buf))
			}
		})
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed uint64, dRaw uint16) bool {
		s := fingerprintOf(int(dRaw%500)+1, 48, graph.NewRand(seed))
		got, err := sketch.DecodeDeviation(sketch.EncodeDeviation(s))
		if err != nil || len(got) != len(s) {
			return false
		}
		for i := range s {
			if got[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	buf := sketch.EncodeDeviation(fingerprintOf(1, 32, graph.NewRand(4)))
	if _, err := sketch.DecodeDeviation(buf[:1]); err == nil {
		t.Fatal("truncated buffer decoded")
	}
	if _, err := sketch.DecodeDeviation(nil); err == nil {
		t.Fatal("nil buffer decoded")
	}
}

// packBits packs bits in the order the deviation decoder reads them: the
// lowest bit of each byte first.
func packBits(bits ...[]int) []byte {
	var buf []byte
	n := 0
	for _, run := range bits {
		for _, b := range run {
			if n%8 == 0 {
				buf = append(buf, 0)
			}
			buf[n/8] |= byte(b) << (n % 8)
			n++
		}
	}
	return buf
}

// gamma returns the Elias-gamma code of x ≥ 1.
func gamma(x uint64) []int {
	n := bits.Len64(x)
	code := make([]int, 2*n-1)
	for i := 0; i < n; i++ {
		code[n-1+i] = int(x >> (n - 1 - i) & 1)
	}
	return code
}

// TestDecodeRejectsOutOfRange: buffers that no fingerprint encodes to must
// decode to an error — not a panic, and not a row whose values wrapped or
// sit outside the cell range [Empty, MaxCell8], on which Estimate would
// panic or the max kernel's laws would not hold.
func TestDecodeRejectsOutOfRange(t *testing.T) {
	cases := map[string][]byte{
		// t = 2⁶²−1 trials announced in 16 bytes.
		"huge trial count": packBits(gamma(1<<62), gamma(2)),
		// k = −1, one trial with deviation −3: value −4.
		"below Empty": packBits(gamma(2), gamma(1), []int{1, 1, 1, 1, 0}),
		// k = 127, one trial with deviation +1: value 128.
		"above MaxCell8": packBits(gamma(2), gamma(129), []int{0, 1, 0}),
		// k = 128, one trial with deviation −1: the baseline is out of range.
		"baseline above MaxCell8": packBits(gamma(2), gamma(130), []int{1, 1, 0}),
		// k = 65537, one trial with deviation 0: would wrap to 1.
		"above MaxInt16": packBits(gamma(2), gamma(65539), []int{0, 0}),
		// A trial count of 2⁶⁴+1, which would wrap to 1 (zero trials).
		"past 64 bits": packBits(make([]int, 64), []int{1}, make([]int, 63), []int{1}, gamma(2)),
	}
	if n := len(cases["huge trial count"]); n != 16 {
		t.Fatalf("huge trial count case is %d bytes, want 16", n)
	}
	// The largest legal cell still decodes: k = 127, one trial at 127.
	if s, err := sketch.DecodeDeviation(packBits(gamma(2), gamma(129), []int{0, 0})); err != nil || len(s) != 1 || s[0] != sketch.MaxCell8 {
		t.Fatalf("MaxCell8 row decoded to %v, %v", s, err)
	}
	for name, buf := range cases {
		s, err := sketch.DecodeDeviation(buf)
		if err == nil {
			t.Errorf("%s: decoded to %v, want an error", name, s)
		}
	}
}

func TestEncodedBitsIsCompact(t *testing.T) {
	// Lemma 5.5/5.6: total deviation is O(t) w.h.p., so the encoding is
	// O(t + log log d) bits — far below the naive t·log(maxY) encoding.
	rng := graph.NewRand(5)
	const trials = 256
	for _, d := range []int{16, 256, 4096, 65536} {
		bits := encodedBits(fingerprintOf(d, trials, rng))
		// 8t is the Lemma 5.5 deviation bound; allow the full budget plus
		// per-entry overhead and headers.
		budget := 10*trials + 64
		if bits > budget {
			t.Fatalf("d=%d: encoding %d bits exceeds O(t) budget %d", d, bits, budget)
		}
	}
}

func TestBaselineIsMedianMinimizer(t *testing.T) {
	s := []int8{3, 3, 4, 4, 4, 5, 9}
	k := sketch.DeviationBaseline(s)
	cost := func(k int) int {
		c := 0
		for _, y := range s {
			d := int(y) - k
			if d < 0 {
				d = -d
			}
			c += d
		}
		return c
	}
	for cand := 0; cand <= 10; cand++ {
		if cost(cand) < cost(k) {
			t.Fatalf("baseline %d not optimal: %d beats it", k, cand)
		}
	}
}

func TestEstimateMatchesExactCountDistribution(t *testing.T) {
	// Repeated estimates should concentrate: over 30 repetitions for d=200
	// the mean should be within 10%.
	rng := graph.NewRand(6)
	const d, trials, reps = 200, 1024, 30
	var est sketch.MaxEstimator[int8]
	sum := 0.0
	for r := 0; r < reps; r++ {
		sum += est.Estimate(fingerprintOf(d, trials, rng))
	}
	mean := sum / reps
	if math.Abs(mean-d) > 0.1*d {
		t.Fatalf("mean estimate %.1f far from %d", mean, d)
	}
}

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
