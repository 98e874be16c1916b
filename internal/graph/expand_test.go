package graph

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// edgeKey normalizes an undirected pair for use as a map key in tests.
func edgeKey(u, v int) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{int32(u), int32(v)}
}

func TestExpandTopologies(t *testing.T) {
	h := Cycle(6)
	tests := []struct {
		name string
		spec ExpandSpec
	}{
		{name: "singleton", spec: ExpandSpec{Topology: TopologySingleton}},
		{name: "path", spec: ExpandSpec{Topology: TopologyPath, MachinesPerCluster: 4}},
		{name: "star", spec: ExpandSpec{Topology: TopologyStar, MachinesPerCluster: 5}},
		{name: "tree", spec: ExpandSpec{Topology: TopologyTree, MachinesPerCluster: 6}},
		{name: "redundant", spec: ExpandSpec{Topology: TopologyStar, MachinesPerCluster: 5, RedundantLinks: 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := NewRand(42)
			exp, err := Expand(h, tt.spec, rng)
			if err != nil {
				t.Fatal(err)
			}
			size := tt.spec.MachinesPerCluster
			if tt.spec.Topology == TopologySingleton {
				size = 1
			}
			if exp.G.N() != h.N()*size {
				t.Fatalf("G.N() = %d, want %d", exp.G.N(), h.N()*size)
			}
			// Clusters must be connected within G.
			for v := 0; v < h.N(); v++ {
				ms := exp.Machines[v]
				if len(ms) != size {
					t.Fatalf("cluster %d has %d machines, want %d", v, len(ms), size)
				}
				inCluster := func(m int) bool { return exp.ClusterOf[m] == v }
				depth, _ := exp.G.BFSDepths(int(ms[0]), inCluster)
				for _, m := range ms {
					if depth[m] < 0 {
						t.Fatalf("cluster %d disconnected at machine %d", v, m)
					}
				}
			}
			// Every H-edge must be realized by >= 1 inter-cluster link, and
			// every inter-cluster link must realize an H-edge.
			realized := map[[2]int32]bool{}
			for m := 0; m < exp.G.N(); m++ {
				cu := exp.ClusterOf[m]
				for _, m2 := range exp.G.Neighbors(m) {
					cv := exp.ClusterOf[m2]
					if cu == cv {
						continue
					}
					if !h.HasEdge(cu, cv) {
						t.Fatalf("inter-cluster link (%d,%d) between non-adjacent clusters %d,%d", m, m2, cu, cv)
					}
					realized[edgeKey(cu, cv)] = true
				}
			}
			for u := 0; u < h.N(); u++ {
				for _, w := range h.Neighbors(u) {
					if int(w) > u && !realized[edgeKey(u, int(w))] {
						t.Fatalf("H-edge {%d,%d} not realized", u, w)
					}
				}
			}
		})
	}
}

func TestExpandRejectsBadSpec(t *testing.T) {
	rng := NewRand(1)
	if _, err := Expand(Path(3), ExpandSpec{Topology: TopologyPath, MachinesPerCluster: 0}, rng); err == nil {
		t.Fatal("zero machines accepted")
	}
	for _, size := range []int{1, 2} {
		if _, err := Expand(Path(3), ExpandSpec{Topology: ClusterTopology(99), MachinesPerCluster: size}, rng); err == nil {
			t.Fatalf("unknown topology accepted at size %d", size)
		}
	}
}

// TestExpandRejectsMachineIDOverflow pins the int32 machine-id bound: a
// network of more than MaxInt32 machines is an error before any table is
// sized (unchecked, 2⁴⁰ machines per cluster panics in makeslice, and a
// 3-vertex graph one cluster size past the bound asks for ≈17 GB). An empty
// H has no machines at any cluster size.
func TestExpandRejectsMachineIDOverflow(t *testing.T) {
	for _, tc := range []struct {
		h    *Graph
		size int
	}{
		{MustGNP(200, 0.05, NewRand(1)), 1 << 40},
		{Path(3), math.MaxInt32/3 + 1},
	} {
		_, err := Expand(tc.h, ExpandSpec{Topology: TopologyPath, MachinesPerCluster: tc.size}, NewRand(2))
		if err == nil || !strings.Contains(err.Error(), "int32") {
			t.Errorf("n=%d size=%d: error %v, want the int32 machine-id bound", tc.h.N(), tc.size, err)
		}
	}
	exp, err := Expand(NewBuilder(0).Build(), ExpandSpec{Topology: TopologyPath, MachinesPerCluster: 1 << 40}, NewRand(2))
	if err != nil || exp.G.N() != 0 {
		t.Fatalf("empty H: %v, %v", exp, err)
	}
}

// TestExpandOneMachineSharesH pins the CONGEST fast path: with one machine
// per cluster, for every topology and redundancy, the network is h itself,
// machine v is vertex v, and rng is not advanced.
func TestExpandOneMachineSharesH(t *testing.T) {
	h := MustGNP(60, 0.1, NewRand(3))
	for _, topo := range []ClusterTopology{TopologySingleton, TopologyPath, TopologyStar, TopologyTree} {
		for _, redundant := range []int{0, 1, 3} {
			spec := ExpandSpec{Topology: topo, MachinesPerCluster: 1, RedundantLinks: redundant}
			rng := NewRand(9)
			exp, err := Expand(h, spec, rng)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			if exp.G != h {
				t.Fatalf("%+v: the network is a copy of H, want H itself", spec)
			}
			if len(exp.ClusterOf) != h.N() || len(exp.Machines) != h.N() {
				t.Fatalf("%+v: %d machines, %d clusters for n=%d", spec, len(exp.ClusterOf), len(exp.Machines), h.N())
			}
			for v := 0; v < h.N(); v++ {
				if exp.ClusterOf[v] != v || len(exp.Machines[v]) != 1 || exp.Machines[v][0] != int32(v) {
					t.Fatalf("%+v: vertex %d: ClusterOf %d, Machines %v; want the identity", spec, v, exp.ClusterOf[v], exp.Machines[v])
				}
			}
			if got, want := rng.Uint64(), NewRand(9).Uint64(); got != want {
				t.Fatalf("%+v: rng advanced", spec)
			}
		}
	}
}

// TestExpandRedundantLinksCapped pins the cap of RedundantLinks at size²:
// larger requests draw exactly what size² draws.
func TestExpandRedundantLinksCapped(t *testing.T) {
	h := Clique(6)
	expand := func(redundant int) *Expansion {
		exp, err := Expand(h, ExpandSpec{Topology: TopologyTree, MachinesPerCluster: 2, RedundantLinks: redundant}, NewRand(4))
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}
	ref := expand(4)
	for _, redundant := range []int{5, 1 << 20, 1 << 50} {
		exp := expand(redundant)
		if exp.G.M() != ref.G.M() {
			t.Fatalf("RedundantLinks %d: %d links, want the size² expansion's %d", redundant, exp.G.M(), ref.G.M())
		}
		for m := 0; m < ref.G.N(); m++ {
			if !slices.Equal(exp.G.Neighbors(m), ref.G.Neighbors(m)) {
				t.Fatalf("RedundantLinks %d: machine %d links %v, want %v", redundant, m, exp.G.Neighbors(m), ref.G.Neighbors(m))
			}
		}
	}
}

func TestTopologyString(t *testing.T) {
	tests := []struct {
		topo ClusterTopology
		want string
	}{
		{TopologySingleton, "singleton"},
		{TopologyPath, "path"},
		{TopologyStar, "star"},
		{TopologyTree, "tree"},
		{ClusterTopology(42), "ClusterTopology(42)"},
	}
	for _, tt := range tests {
		if got := tt.topo.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestExpandRedundantLinksCreateMultiplePaths(t *testing.T) {
	rng := NewRand(8)
	h := Clique(4)
	exp, err := Expand(h, ExpandSpec{Topology: TopologyStar, MachinesPerCluster: 8, RedundantLinks: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Count inter-cluster links per H-edge; expect more than one for at
	// least one pair (with 4 attempts each over 8x8 machine pairs this is
	// essentially certain).
	count := map[[2]int32]int{}
	for m := 0; m < exp.G.N(); m++ {
		for _, m2 := range exp.G.Neighbors(m) {
			if int(m2) < m {
				continue
			}
			cu, cv := exp.ClusterOf[m], exp.ClusterOf[m2]
			if cu != cv {
				count[edgeKey(cu, cv)]++
			}
		}
	}
	multi := 0
	for _, c := range count {
		if c > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no H-edge got redundant links")
	}
}
