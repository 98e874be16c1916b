package prng

import (
	"math"
	"testing"
	"testing/quick"

	"clustercolor/internal/graph"
)

func TestGeometricHalfDistribution(t *testing.T) {
	rng := graph.NewRand(1)
	const samples = 200000
	counts := make([]int, 20)
	for i := 0; i < samples; i++ {
		k := GeometricHalf(rng)
		if k < len(counts) {
			counts[k]++
		}
	}
	// Pr[X = k] = 2^-(k+1).
	for k := 0; k <= 5; k++ {
		got := float64(counts[k]) / samples
		want := math.Pow(0.5, float64(k+1))
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("Pr[X=%d] = %.4f, want %.4f", k, got, want)
		}
	}
}

func TestGeometricGeneralParameter(t *testing.T) {
	rng := graph.NewRand(2)
	const samples = 100000
	lambda := 0.3
	zero := 0
	for i := 0; i < samples; i++ {
		if Geometric(rng, lambda) == 0 {
			zero++
		}
	}
	got := float64(zero) / samples
	want := 1 - lambda // Pr[X=0] = 1-λ
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("Pr[X=0] = %.4f, want %.4f", got, want)
	}
}

func TestKWiseHashRejectsBadK(t *testing.T) {
	rng := graph.NewRand(3)
	if _, err := NewKWiseHash(0, rng); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestKWiseHashDeterministicAndSpread(t *testing.T) {
	rng := graph.NewRand(4)
	h, err := NewKWiseHash(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h.Eval(42) != h.Eval(42) {
		t.Fatal("hash not deterministic")
	}
	if h.SeedBits() != 4*61 {
		t.Fatalf("SeedBits = %d", h.SeedBits())
	}
	// Pairwise uniformity sanity: buckets of Eval over [0,4) roughly equal.
	buckets := make([]int, 4)
	for x := uint64(0); x < 40000; x++ {
		buckets[h.Eval(x)%4]++
	}
	for b, c := range buckets {
		if c < 8000 || c > 12000 {
			t.Fatalf("bucket %d has %d of 40000", b, c)
		}
	}
}

func TestMulmod61MatchesBigIntSemantics(t *testing.T) {
	// Cross-check the Mersenne reduction against direct 128-bit math on
	// values near the modulus.
	cases := [][2]uint64{
		{0, 0},
		{1, mersennePrime61 - 1},
		{mersennePrime61 - 1, mersennePrime61 - 1},
		{123456789012345, 987654321098765},
	}
	for _, c := range cases {
		want := naiveMulMod(c[0], c[1])
		if got := mulmod61(c[0], c[1]); got != want {
			t.Fatalf("mulmod61(%d,%d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

func naiveMulMod(a, b uint64) uint64 {
	// Schoolbook via math/bits through repeated addition in 128 bits is
	// overkill; use big-free double-and-add.
	var res uint64
	a %= mersennePrime61
	b %= mersennePrime61
	for b > 0 {
		if b&1 == 1 {
			res = (res + a) % mersennePrime61
		}
		a = (a * 2) % mersennePrime61
		b >>= 1
	}
	return res
}

func TestMulmod61Property(t *testing.T) {
	f := func(a, b uint64) bool {
		return mulmod61(a%mersennePrime61, b%mersennePrime61) == naiveMulMod(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMinWiseHashUniformArgMin(t *testing.T) {
	// Over many independent functions, ArgMin over a fixed set should be
	// near-uniform (Definition C.1).
	rng := graph.NewRand(5)
	ids := []int{3, 8, 13, 21, 34}
	counts := make(map[int]int)
	const trials = 20000
	for i := 0; i < trials; i++ {
		h, err := NewMinWiseHash(64, 0.25, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[h.ArgMin(ids)]++
	}
	want := float64(trials) / float64(len(ids))
	for _, id := range ids {
		got := float64(counts[id])
		if got < want*0.7 || got > want*1.3 {
			t.Fatalf("ArgMin hit %d %.0f times, want ≈%.0f", id, got, want)
		}
	}
}

func TestMinWiseHashValidation(t *testing.T) {
	rng := graph.NewRand(6)
	if _, err := NewMinWiseHash(0, 0.1, rng); err == nil {
		t.Fatal("empty universe accepted")
	}
	if _, err := NewMinWiseHash(10, 0, rng); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := NewMinWiseHash(10, 1, rng); err == nil {
		t.Fatal("eps=1 accepted")
	}
	h, err := NewMinWiseHash(10, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h.ArgMin(nil) != -1 {
		t.Fatal("ArgMin(empty) != -1")
	}
	if h.SeedBits() <= 0 {
		t.Fatal("SeedBits <= 0")
	}
}

func TestRepFamilyValidation(t *testing.T) {
	tests := []struct {
		name                     string
		universe, setSize, count int
	}{
		{name: "zero universe", universe: 0, setSize: 1, count: 1},
		{name: "zero set", universe: 5, setSize: 0, count: 1},
		{name: "oversized set", universe: 5, setSize: 6, count: 1},
		{name: "zero count", universe: 5, setSize: 2, count: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewRepFamily(tt.universe, tt.setSize, tt.count, 1); err == nil {
				t.Fatal("invalid family accepted")
			}
		})
	}
}

func TestRepFamilyMembersAreValidSets(t *testing.T) {
	f, err := NewRepFamily(100, 10, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.Count(); i++ {
		m, err := f.Member(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 10 {
			t.Fatalf("member %d has size %d", i, len(m))
		}
		seen := map[int]bool{}
		for _, x := range m {
			if x < 0 || x >= 100 || seen[x] {
				t.Fatalf("member %d has bad element %d", i, x)
			}
			seen[x] = true
		}
	}
	// Determinism: same index, same set.
	a, _ := f.Member(3)
	b, _ := f.Member(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Member(3) not deterministic")
		}
	}
	if _, err := f.Member(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := f.Member(f.Count()); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestRepFamilyDenseRegime(t *testing.T) {
	// setSize*4 >= universe triggers the Fisher–Yates path.
	f, err := NewRepFamily(12, 6, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Member(0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, x := range m {
		if x < 0 || x >= 12 || seen[x] {
			t.Fatalf("bad dense member %v", m)
		}
		seen[x] = true
	}
}

func TestRepFamilyRepresentativeness(t *testing.T) {
	// Definition C.5 property, empirically: for a target T of half the
	// universe, most members intersect T near-proportionally.
	f, err := RepFamilyFor(200, 0.5, 0.25, 11)
	if err != nil {
		t.Fatal(err)
	}
	inT := func(x int) bool { return x < 100 } // |T|/K = 1/2
	good := 0
	for i := 0; i < f.Count(); i++ {
		m, err := f.Member(i)
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, x := range m {
			if inT(x) {
				hits++
			}
		}
		frac := float64(hits) / float64(len(m))
		if frac > 0.25 && frac < 0.75 { // within (1±α)|T|/K for α=1/2
			good++
		}
	}
	if float64(good) < 0.9*float64(f.Count()) {
		t.Fatalf("only %d/%d members representative", good, f.Count())
	}
}

func TestRepFamilyForValidation(t *testing.T) {
	if _, err := RepFamilyFor(10, 0, 0.5, 1); err == nil {
		t.Fatal("alpha=0 accepted")
	}
	if _, err := RepFamilyFor(10, 0.5, 2, 1); err == nil {
		t.Fatal("delta=2 accepted")
	}
}

func TestRepFamilyIndexBits(t *testing.T) {
	f, err := NewRepFamily(100, 5, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.IndexBits() != 10 {
		t.Fatalf("IndexBits = %d, want 10", f.IndexBits())
	}
	if f.Universe() != 100 || f.SetSize() != 5 {
		t.Fatal("accessors wrong")
	}
}

func TestPermutationIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		p := Permutation(50, seed)
		seen := make([]bool, 50)
		for _, x := range p {
			if x < 0 || x >= 50 || seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	// Deterministic per seed, different across seeds (overwhelmingly).
	a := Permutation(50, 1)
	b := Permutation(50, 1)
	c := Permutation(50, 2)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same || !diff {
		t.Fatalf("seed determinism broken: same=%v diff=%v", same, diff)
	}
}
