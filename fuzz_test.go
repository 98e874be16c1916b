package clustercolor

import (
	"testing"
)

// FuzzColor runs the whole pipeline on arbitrary small graphs, seeds and
// Options: whatever (n, seed, options, edge list) the fuzzer invents, Color
// must return a verified total proper (Δ+1)-coloring with non-negative round
// counts — never a panic, never an improper or partial coloring. The options
// byte crosses every topology, cluster sizes 1–4, RedundantLinks 0–3 and
// Shards 0–3, so inputs reach both the one-machine expansion (which shares
// H) and the general one.
func FuzzColor(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 1, 0, 0, 1, 1, 2, 2, 3, 3, 0, 4, 5})
	f.Add([]byte{40, 3, 0})               // edgeless graph
	f.Add([]byte{5, 7, 0, 0, 1, 0, 1})    // duplicate edges
	f.Add([]byte{8, 1, 0xfe, 0, 1, 1, 2}) // star of 4, 3 links, 3 shards
	f.Add([]byte{8, 1, 0x61, 0, 1, 1, 2}) // path of 1 machine, 2 links, 1 shard: H shared
	// A dense blob: decodes to a ~clique-ish instance on few vertices, on
	// trees of 3 machines with 2 links per edge.
	f.Add([]byte{6, 9, 0x2b, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0]%48) + 2
		seed := uint64(data[1])
		o := data[2]
		opts := Options{
			Topology:           Topology(1 + o&3),
			MachinesPerCluster: 1 + int(o>>2&3),
			RedundantLinks:     int(o >> 4 & 3),
			Shards:             int(o >> 6),
			Seed:               seed,
		}
		b := NewGraphBuilder(n)
		for i := 3; i+1 < len(data) && i < 203; i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u == v {
				continue
			}
			if err := b.AddEdge(u, v); err != nil {
				t.Fatalf("AddEdge(%d,%d) on n=%d: %v", u, v, n, err)
			}
		}
		h := b.Build()
		res, err := Color(h, opts)
		if err != nil {
			t.Fatalf("Color failed on n=%d m=%d %+v: %v", h.N(), h.M(), opts, err)
		}
		if err := Verify(h, res.Colors()); err != nil {
			t.Fatalf("output fails verification on n=%d m=%d %+v: %v", h.N(), h.M(), opts, err)
		}
		if res.Rounds() < 0 {
			t.Fatalf("negative round count %d", res.Rounds())
		}
		st := res.Stats()
		if st.FallbackRounds < 0 || st.FallbackRounds > st.Rounds {
			t.Fatalf("fallback rounds %d outside [0,%d]", st.FallbackRounds, st.Rounds)
		}
	})
}
