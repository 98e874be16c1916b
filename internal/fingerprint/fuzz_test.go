package fingerprint

import (
	"testing"

	"clustercolor/internal/graph"
)

// FuzzDecode hardens the deviation decoder against arbitrary byte strings:
// it must either return a valid sketch or an error — never panic, never
// return a sketch disagreeing with a re-encode round trip, and never return
// one that Estimate cannot take.
func FuzzDecode(f *testing.F) {
	rng := graph.NewRand(1)
	for _, d := range []int{0, 1, 100} {
		s := NewSketch(16)
		for j := 0; j < d; j++ {
			_ = s.AddSamples(NewSamples(16, rng))
		}
		f.Add(s.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		_ = s.Estimate()
		// A successfully decoded sketch must round-trip.
		again, err := Decode(s.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(s) {
			t.Fatalf("round trip changed length %d → %d", len(s), len(again))
		}
		for i := range s {
			if again[i] != s[i] {
				t.Fatalf("round trip changed trial %d: %d → %d", i, s[i], again[i])
			}
		}
	})
}
