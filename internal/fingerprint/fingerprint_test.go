package fingerprint

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"clustercolor/internal/graph"
)

func TestSketchMergeIsIdempotentCommutativeAssociative(t *testing.T) {
	rng := graph.NewRand(1)
	a := NewSketch(32)
	b := NewSketch(32)
	c := NewSketch(32)
	for i := 0; i < 5; i++ {
		_ = a.AddSamples(NewSamples(32, rng))
		_ = b.AddSamples(NewSamples(32, rng))
		_ = c.AddSamples(NewSamples(32, rng))
	}
	// Idempotent: a ∪ a = a.
	aa := a.Clone()
	_ = aa.Merge(a)
	assertEqual(t, aa, a, "idempotence")
	// Commutative: a ∪ b = b ∪ a.
	ab := a.Clone()
	_ = ab.Merge(b)
	ba := b.Clone()
	_ = ba.Merge(a)
	assertEqual(t, ab, ba, "commutativity")
	// Associative: (a ∪ b) ∪ c = a ∪ (b ∪ c).
	abc1 := a.Clone()
	_ = abc1.Merge(b)
	_ = abc1.Merge(c)
	bc := b.Clone()
	_ = bc.Merge(c)
	abc2 := a.Clone()
	_ = abc2.Merge(bc)
	assertEqual(t, abc1, abc2, "associativity")
}

func assertEqual(t *testing.T, a, b Sketch, what string) {
	t.Helper()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s violated at trial %d: %d != %d", what, i, a[i], b[i])
		}
	}
}

func TestSketchLengthMismatch(t *testing.T) {
	s := NewSketch(8)
	if err := s.AddSamples(make(Samples, 4)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := s.Merge(NewSketch(4)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// Lemma 5.2: with t = Θ(ξ⁻² log n) trials the estimate is within
	// (1±ξ)d. Check across magnitudes with ξ = 0.25 and generous trials.
	rng := graph.NewRand(2)
	for _, d := range []int{1, 4, 16, 100, 1000, 20000} {
		t.Run("", func(t *testing.T) {
			const trials = 2048
			s := NewSketch(trials)
			for j := 0; j < d; j++ {
				if err := s.AddSamples(NewSamples(trials, rng)); err != nil {
					t.Fatal(err)
				}
			}
			got := s.Estimate()
			if got < 0.75*float64(d) || got > 1.25*float64(d) {
				t.Fatalf("Estimate for d=%d: %.1f (off by more than 25%%)", d, got)
			}
		})
	}
}

func TestEstimateEmpty(t *testing.T) {
	s := NewSketch(64)
	if got := s.Estimate(); got != 0 {
		t.Fatalf("empty sketch estimate = %v, want 0", got)
	}
	if got := s.EstimateInt(); got != 0 {
		t.Fatalf("empty sketch EstimateInt = %d, want 0", got)
	}
	var zero Sketch
	if zero.Estimate() != 0 {
		t.Fatal("zero-length sketch estimate != 0")
	}
}

func TestTrialsFor(t *testing.T) {
	if _, err := TrialsFor(0, 100); err == nil {
		t.Fatal("xi=0 accepted")
	}
	if _, err := TrialsFor(1, 100); err == nil {
		t.Fatal("xi=1 accepted")
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
			s := NewSketch(tt.t)
			for j := 0; j < tt.d; j++ {
				_ = s.AddSamples(NewSamples(tt.t, rng))
			}
			buf := s.Encode()
			got, err := Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			assertEqual(t, got, s, "round trip")
			if want := s.EncodedBits(); (want+7)/8 != len(buf) {
				t.Fatalf("EncodedBits=%d but buffer is %d bytes", want, len(buf))
			}
		})
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed uint64, dRaw uint16) bool {
		rng := graph.NewRand(seed)
		d := int(dRaw%500) + 1
		s := NewSketch(48)
		for j := 0; j < d; j++ {
			_ = s.AddSamples(NewSamples(48, rng))
		}
		got, err := Decode(s.Encode())
		if err != nil {
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
	rng := graph.NewRand(4)
	s := NewSketch(32)
	_ = s.AddSamples(NewSamples(32, rng))
	buf := s.Encode()
	if _, err := Decode(buf[:1]); err == nil {
		t.Fatal("truncated buffer decoded")
	}
	if _, err := Decode(nil); err == nil {
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

// TestDecodeRejectsOutOfRange: buffers that no sketch encodes to must
// decode to an error — not a panic, and not a sketch whose values wrapped
// or sit below Empty, on which Estimate would panic.
func TestDecodeRejectsOutOfRange(t *testing.T) {
	cases := map[string][]byte{
		// t = 2⁶²−1 trials announced in 16 bytes.
		"huge trial count": packBits(gamma(1<<62), gamma(2)),
		// k = −1, one trial with deviation −3: value −4.
		"below Empty": packBits(gamma(2), gamma(1), []int{1, 1, 1, 1, 0}),
		// k = 65537, one trial with deviation 0: would wrap to 1.
		"above MaxInt16": packBits(gamma(2), gamma(65539), []int{0, 0}),
		// A trial count of 2⁶⁴+1, which would wrap to 1 (zero trials).
		"past 64 bits": packBits(make([]int, 64), []int{1}, make([]int, 63), []int{1}, gamma(2)),
	}
	if n := len(cases["huge trial count"]); n != 16 {
		t.Fatalf("huge trial count case is %d bytes, want 16", n)
	}
	for name, buf := range cases {
		s, err := Decode(buf)
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
		s := NewSketch(trials)
		for j := 0; j < d; j++ {
			_ = s.AddSamples(NewSamples(trials, rng))
		}
		bits := s.EncodedBits()
		// 8t is the Lemma 5.5 deviation bound; allow the full budget plus
		// per-entry overhead and headers.
		budget := 10*trials + 64
		if bits > budget {
			t.Fatalf("d=%d: encoding %d bits exceeds O(t) budget %d", d, bits, budget)
		}
	}
}

func TestBaselineIsMedianMinimizer(t *testing.T) {
	s := Sketch{3, 3, 4, 4, 4, 5, 9}
	k := s.baseline()
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
	sum := 0.0
	for r := 0; r < reps; r++ {
		s := NewSketch(trials)
		for j := 0; j < d; j++ {
			_ = s.AddSamples(NewSamples(trials, rng))
		}
		sum += s.Estimate()
	}
	mean := sum / reps
	if math.Abs(mean-d) > 0.1*d {
		t.Fatalf("mean estimate %.1f far from %d", mean, d)
	}
}
