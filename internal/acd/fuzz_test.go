package acd

import (
	"testing"

	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
)

// checkConsistency asserts the structural invariants of a decomposition:
// CliqueOf and Cliques describe the same partition, every almost-clique has
// at least two members, and no vertex appears twice.
func checkConsistency(t *testing.T, g *graph.Graph, d *Decomposition, label string) {
	t.Helper()
	if len(d.CliqueOf) != g.N() {
		t.Fatalf("%s: CliqueOf has %d entries for %d vertices", label, len(d.CliqueOf), g.N())
	}
	seen := make([]bool, g.N())
	for i, members := range d.Cliques {
		if len(members) < 2 {
			t.Fatalf("%s: clique %d has %d members (singletons must be reclassified sparse)", label, i, len(members))
		}
		for _, v := range members {
			if v < 0 || v >= g.N() {
				t.Fatalf("%s: clique %d member %d out of range", label, i, v)
			}
			if seen[v] {
				t.Fatalf("%s: vertex %d in two cliques", label, v)
			}
			seen[v] = true
			if d.CliqueOf[v] != i {
				t.Fatalf("%s: vertex %d in clique %d but CliqueOf says %d", label, v, i, d.CliqueOf[v])
			}
		}
	}
	for v, k := range d.CliqueOf {
		if k >= 0 && !seen[v] {
			t.Fatalf("%s: CliqueOf[%d]=%d but vertex missing from member list", label, v, k)
		}
		if k >= len(d.Cliques) {
			t.Fatalf("%s: CliqueOf[%d]=%d out of range", label, v, k)
		}
	}
}

// FuzzACD runs the decomposition on arbitrary small graphs and seeds:
// whatever (n, eps, seed, edge list) the fuzzer invents, Exact and Compute
// must return structurally consistent decompositions without panicking,
// Exact must satisfy Definition 4.2's size bound under a generous check
// tolerance, Compute must be byte-identical at parallelism 1 and 4, every
// threshold decision of Compute must match the inverted estimates (Δ = 1
// graphs at eps 0.3 reach the smallest cut, 0.775), and Exact and Compute
// must agree on the dense/sparse split within sketch tolerance. The
// agreement bound is deliberately loose — on graphs this small every margin
// sits near a threshold, and near-threshold vertices may legitimately land
// on either side — but it catches gross regressions (an inverted predicate
// flips every clique vertex, not a third of them).
func FuzzACD(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 1, 2, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{30, 0, 3}) // edgeless
	// A clique-ish blob on few vertices.
	f.Add([]byte{6, 2, 9, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4})
	// Two dense blocks joined by one bridge.
	f.Add([]byte{10, 3, 5, 0, 1, 0, 2, 1, 2, 0, 3, 1, 3, 2, 3, 4, 5, 4, 6, 5, 6, 4, 7, 5, 7, 6, 7, 3, 4})
	// A perfect matching at eps 0.3: Δ = 1, the smallest cuts.
	f.Add([]byte{8, 3, 5, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0]%40) + 2
		eps := []float64{0.1, 0.2, 0.25, 0.3}[data[1]%4]
		seed := uint64(data[2])
		b := graph.NewBuilder(n)
		for i := 3; i+1 < len(data) && i < 163; i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u == v {
				continue
			}
			if err := b.AddEdge(u, v); err != nil {
				t.Fatalf("AddEdge(%d,%d) on n=%d: %v", u, v, n, err)
			}
		}
		h := b.Build()
		exact, err := Exact(h, eps)
		if err != nil {
			t.Fatalf("Exact(n=%d, eps=%v): %v", h.N(), eps, err)
		}
		checkConsistency(t, h, exact, "exact")
		if _, err := exact.Validate(h, 0.95); err != nil {
			t.Fatalf("Exact violates the size bound: %v", err)
		}
		cg := asCG(t, h, seed^0xfeed)
		run := func(par int, ws *Workspace) *Decomposition {
			prev := parwork.SetParallelism(par)
			defer parwork.SetParallelism(prev)
			d, err := ComputeWith(cg, eps, parwork.StreamRNG(seed), ws)
			if err != nil {
				t.Fatalf("Compute(n=%d, eps=%v, par=%d): %v", h.N(), eps, par, err)
			}
			return d
		}
		ws := NewWorkspace()
		d1 := run(1, ws)
		checkConsistency(t, h, d1, "compute")
		checkDecisions(t, cg, ws.one.SG, eps, parwork.StreamRNG(seed), ws)
		d4 := run(4, NewWorkspace())
		if len(d1.CliqueOf) != len(d4.CliqueOf) {
			t.Fatal("parallelism changed CliqueOf length")
		}
		for v := range d1.CliqueOf {
			if d1.CliqueOf[v] != d4.CliqueOf[v] {
				t.Fatalf("vertex %d: clique %d at par=1 but %d at par=4", v, d1.CliqueOf[v], d4.CliqueOf[v])
			}
		}
		// Validate must never panic on Compute's output; the size bound can
		// wobble on adversarial tiny graphs where sketch noise merges
		// borderline components, so only its violation fraction is checked.
		if frac, err := d1.Validate(h, 0.95); err == nil && (frac < 0 || frac > 1) {
			t.Fatalf("violation fraction %v out of [0,1]", frac)
		}
		// Agreement with Exact, within sketch tolerance. The distributed
		// predicate thresholds |N(u) ∪ N(v)| at (1+1.5ξ)Δ while Exact
		// thresholds |N(u) ∩ N(v)| at (1−2ξ)Δ; the 0.5ξΔ gap between the
		// two only fits real edges when 1.5ξΔ ≥ 2 (the paper assumes
		// Δ ≫ 1/ε — a K₅ at Δ=4 has (1+1.5ξ)Δ < Δ+1 and legitimately
		// classifies sparse). When the gap is representable, a loose bound
		// still catches gross regressions: an inverted or broken predicate
		// flips essentially every vertex of a sparse instance, not a third.
		xi := eps / 2
		if 1.5*xi*float64(h.MaxDegree()) >= 2 {
			disagree := 0
			for v := 0; v < h.N(); v++ {
				if exact.IsSparse(v) != d1.IsSparse(v) {
					disagree++
				}
			}
			if limit := maxOf(6, 2*h.N()/3); disagree > limit {
				t.Fatalf("%d/%d vertices classified differently from Exact (limit %d)", disagree, h.N(), limit)
			}
		}
	})
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}
