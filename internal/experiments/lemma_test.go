package experiments

import (
	"math"
	"testing"

	"clustercolor/internal/graph"
	"clustercolor/internal/sketch"
)

// TestLemmaEstimateAccuracy bounds the literal Lemma 5.2 statistic E3
// measures on fingerprints of known counts: about twice the harmonic
// extraction's error, so within 25% at t = 2048.
func TestLemmaEstimateAccuracy(t *testing.T) {
	rng := graph.NewRand(0x9e3779b9)
	for _, d := range []int{10, 100, 1000, 20000} {
		got := lemmaEstimate(fingerprintOf(d, 2048, rng))
		if e := math.Abs(got-float64(d)) / float64(d); e > 0.25 {
			t.Errorf("d=%d: estimate %.1f, relative error %.3f > 0.25", d, got, e)
		}
	}
}

// TestLemmaEstimateSaturated: cells clamped at the MaxCell8 ceiling —
// unreachable through organic draws — still give a finite estimate.
func TestLemmaEstimateSaturated(t *testing.T) {
	saturated := make([]int8, 256)
	for i := range saturated {
		saturated[i] = sketch.MaxCell8
	}
	organic := fingerprintOf(1000, 256, graph.NewRand(77))
	for _, row := range [][]int8{saturated, organic} {
		if got := lemmaEstimate(row); math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("estimate not finite: %v", got)
		}
	}
}

// TestLemmaEstimateEmptyRow: a fingerprint of no parties, and a zero-width
// row, estimate to 0.
func TestLemmaEstimateEmptyRow(t *testing.T) {
	if got := lemmaEstimate(fingerprintOf(0, 128, graph.NewRand(1))); got != 0 {
		t.Errorf("empty fingerprint: %v, want 0", got)
	}
	if got := lemmaEstimate(nil); got != 0 {
		t.Errorf("zero-width row: %v, want 0", got)
	}
}
