package distsim

import (
	"reflect"
	"runtime"
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/core"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
)

// buildTracedCG expands h per the scenario, runs the traced pipeline, and
// returns the collected stage traces with the cluster graph they ran on.
func buildTracedCG(t *testing.T, h *graph.Graph, sc Scenario, seed uint64) ([]*core.StageTrace, *cluster.CG) {
	t.Helper()
	exp, err := graph.Expand(h, sc.Expand, graph.NewRand(seed^0xc0ffee))
	if err != nil {
		t.Fatal(err)
	}
	cost, err := network.NewCostModel(network.DefaultBandwidth(exp.G.N()))
	if err != nil {
		t.Fatal(err)
	}
	cg, err := cluster.New(h, exp, cost)
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams(h.N())
	if sc.Params != nil {
		params = sc.Params(h.N())
	}
	params.Seed = seed
	var traces []*core.StageTrace
	if _, _, err := core.ColorTraced(cg, params, func(tr *core.StageTrace) {
		traces = append(traces, tr)
	}); err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("pipeline produced no stage traces")
	}
	return traces, cg
}

// scenarioByName finds a matrix cell by name, so tests don't depend on the
// matrix's ordering.
func scenarioByName(t *testing.T, name string) Scenario {
	t.Helper()
	for _, sc := range Matrix() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("scenario %s missing from matrix", name)
	return Scenario{}
}

// TestConformanceMatrix is the central correctness argument of the repo made
// executable: for every scenario of the matrix, every cluster primitive —
// the fingerprint wave, the leader round, and each per-clique stage the
// pipeline ran (colorful matching, synchronized color trial, put-aside
// donation) — is re-executed as real messages on network.Engine and must
// byte-match the vertex-level layer, stay within the rounds the cost model
// charged, and respect the per-link bandwidth cap.
func TestConformanceMatrix(t *testing.T) {
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				rep, err := Conformance(sc, seed, 0)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(rep.Primitives) < 2 {
					t.Fatalf("seed %d: only %d primitives conformed", seed, len(rep.Primitives))
				}
				for _, p := range rep.Primitives {
					if p.Skipped {
						continue
					}
					if p.CommRounds <= 0 {
						t.Fatalf("seed %d: %s executed no communication rounds", seed, p.Primitive)
					}
					if p.MaxLinkBits > rep.EngineBandwidth {
						t.Fatalf("seed %d: %s overflowed the link cap: %d > %d",
							seed, p.Primitive, p.MaxLinkBits, rep.EngineBandwidth)
					}
				}
			}
		})
	}
}

// TestConformanceCoversCliquePrimitives pins that the matrix actually
// exercises the per-clique protocols: the dense scenarios must conform
// matching, SCT, and a non-skipped donation stage.
func TestConformanceCoversCliquePrimitives(t *testing.T) {
	covered := map[string]bool{}
	for _, name := range []string{"ringcliques/path", "planted/redundant"} {
		rep, err := Conformance(scenarioByName(t, name), 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Primitives {
			if !p.Skipped && p.Cliques > 0 {
				switch {
				case p.Primitive == "donate":
					covered["donate"] = true
				case p.Primitive[:3] == "sct":
					covered["sct"] = true
				case p.Primitive[:8] == "matching":
					covered["matching"] = true
				}
			}
		}
	}
	for _, want := range []string{"matching", "sct", "donate"} {
		if !covered[want] {
			t.Errorf("no scenario conformed the %s primitive on real cliques", want)
		}
	}
}

// TestConformanceByteIdenticalAcrossParallelism runs the harness at
// parallelism 1, 4, and NumCPU: the vertex-level pipeline, the machine
// protocols, and therefore the whole report must be byte-identical (and the
// run race-clean under -race).
func TestConformanceByteIdenticalAcrossParallelism(t *testing.T) {
	sc := scenarioByName(t, "ringcliques/path") // all per-clique primitives run
	runAt := func(par int) *Report {
		prev := parwork.SetParallelism(par)
		defer parwork.SetParallelism(prev)
		rep, err := Conformance(sc, 5, 0)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return rep
	}
	ref := runAt(1)
	for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := runAt(par); !reflect.DeepEqual(got, ref) {
			t.Fatalf("parallelism %d report diverges:\n got %+v\nwant %+v", par, got, ref)
		}
	}
}

// TestStageSeamsReproducible drives the exported per-clique job seams in
// isolation: re-running a traced stage's jobs on its snapshot with the same
// RowSeed-derived streams must reproduce the traced writes exactly. This is
// the vertex-level half of the conformance argument, with no machines
// involved — it pins that traces are replayable from (snapshot, seed) alone.
func TestStageSeamsReproducible(t *testing.T) {
	sc := scenarioByName(t, "planted/redundant")
	h, err := sc.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	traces, cg := buildTracedCG(t, h, sc, 3)
	for _, tr := range traces {
		for i := range tr.Writes {
			view := tr.Snapshot.Clone()
			rng := parwork.StreamRNG(parwork.RowSeed(tr.BaseSeed, i))
			sub, err := network.NewCostModel(cg.Cost().Bandwidth())
			if err != nil {
				t.Fatal(err)
			}
			subCG := cg.WithCost(sub)
			var members []int
			switch {
			case tr.Matching != nil:
				members = tr.Matching[i].Members
				if _, err := core.MatchingJob(subCG, view, tr.Matching[i], rng); err != nil {
					t.Fatal(err)
				}
			case tr.SCT != nil:
				members = tr.SCT[i].Members
				if _, err := core.SCTJob(subCG, view, tr.SCT[i], rng); err != nil {
					t.Fatal(err)
				}
			case tr.Donate != nil:
				members = tr.Donate[i].Members
				if _, err := core.DonateJob(subCG, view, tr.Donate[i], coloring.NewPaletteScratch(), rng); err != nil {
					t.Fatal(err)
				}
			}
			var writes []core.MemberWrite
			for pass := 0; pass < 2; pass++ {
				for _, v := range members {
					nc, oc := view.Get(v), tr.Snapshot.Get(v)
					if nc == oc {
						continue
					}
					if recolor := oc != coloring.None; (pass == 0) != recolor {
						continue
					}
					writes = append(writes, core.MemberWrite{V: v, C: nc})
				}
			}
			if !reflect.DeepEqual(writes, tr.Writes[i]) {
				t.Fatalf("stage %s clique %d: isolated job writes %v, traced %v",
					tr.Stage, i, writes, tr.Writes[i])
			}
		}
	}
}
