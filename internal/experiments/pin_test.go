package experiments

import (
	"hash/fnv"
	"testing"
)

// TestFingerprintTablesPinned pins the rendered fingerprint-driven and
// clique-primitive tables at their battery sizes for seed 1 — E3 and E4
// (sketch accuracy and encoding), E7 (Algorithm 7's matching), A1 (encoding
// ablation), A2 (the fingerprint matching backup), E8 (put-aside coloring),
// E9 (the synchronized color trial) and A3 (donation against a run with
// every donor forbidden) — by FNV-64a, so a change to the sketch
// representation or to a clique primitive that moves a draw, an estimate,
// an encoded bit or a charge shows up here. The E3–A2 hashes were recorded
// on the int16 fingerprint implementation, E3's again when its note came to
// name sketch.MaxEstimator.Estimate (only the note line changed); the E8,
// E9 and A3 hashes were recorded on the vertex-indexed primitives, before
// they moved onto coloring.CliqueView.
func TestFingerprintTablesPinned(t *testing.T) {
	const seed = 1
	cases := []struct {
		id    string
		table func() (*Table, error)
		want  uint64
	}{
		{"E3", func() (*Table, error) { return E3FingerprintAccuracy([]int{64, 256, 1024}, 500, 40, seed) }, 0xfce1a4495c8c4a57},
		{"E4", func() (*Table, error) { return E4FingerprintEncoding([]int{64, 256}, []int{16, 1024, 65536}, seed) }, 0x37b35d745f9d349b},
		{"E7", func() (*Table, error) { return E7CabalMatching(80, []int{0, 2, 6, 12}, seed) }, 0x126ab48783555bc1},
		{"A1", func() (*Table, error) { return A1Encoding([]int{64, 256, 1024}, 5000, 48, seed) }, 0xa6835610e9eaf471},
		{"A2", func() (*Table, error) { return A2CabalMatching(70, 8, 5, seed) }, 0xeb4d30b718a0bbb3},
		{"E8", func() (*Table, error) { return E8PutAside([]int{40, 80, 160}, 4, seed) }, 0x1217c13bca089e65},
		{"E9", func() (*Table, error) { return E9SCT(60, []int{1, 3, 6, 10}, seed) }, 0xaa9901743160fc91},
		{"A3", func() (*Table, error) { return A3PutAside(400, 4, 14, seed) }, 0x3c57e838a54c6316},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			tbl, err := tc.table()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write([]byte(tbl.Render()))
			if got := h.Sum64(); got != tc.want {
				t.Errorf("hash %#016x, want %#016x\n%s", got, tc.want, tbl.Render())
			}
		})
	}
}
