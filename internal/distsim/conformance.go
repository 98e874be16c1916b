package distsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"strings"

	"clustercolor/internal/cluster"
	"clustercolor/internal/core"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/sketch"
)

// Conformance is the differential harness that validates the vertex-level
// cost-charged layer against true machine-granularity execution: for a
// scenario it builds the cluster graph, runs the full pipeline under a
// stage tracer, and re-executes every cluster primitive as real messages on
// network.Engine — the fingerprint aggregation wave, the leader
// broadcast/convergecast round, and each traced per-clique stage (colorful
// matching, synchronized color trial, put-aside donation) with the same
// RowSeed-derived seeds the pipeline used. For every primitive it asserts:
//
//  1. byte-conformance — the machine protocol produces exactly the writes
//     and auxiliary outcomes the vertex-level layer computed;
//  2. round budget — the engine's communication rounds never exceed what
//     network.CostModel charged for the primitive (CheckBudget);
//  3. bandwidth — no link carries more than the engine cap in any round
//     (enforced by the engine, re-asserted from the stats).

// Scenario is one cell of the conformance matrix: an instance generator
// plus the machine expansion it runs on.
type Scenario struct {
	Name string
	// Build constructs the H graph for a seed.
	Build func(seed uint64) (*graph.Graph, error)
	// Expand wires each H-vertex into a machine cluster.
	Expand graph.ExpandSpec
	// Params returns pipeline parameters (nil = core.DefaultParams).
	Params func(n int) core.Params
}

// PrimitiveReport is one primitive's measured machine-level cost next to
// its vertex-level charge.
type PrimitiveReport struct {
	Primitive     string `json:"primitive"`
	Cliques       int    `json:"cliques,omitempty"`
	CommRounds    int    `json:"comm_rounds"`
	ChargedRounds int64  `json:"charged_rounds"`
	MaxLinkBits   int    `json:"max_link_bits"`
	TotalBits     int64  `json:"total_bits"`
	Messages      int64  `json:"messages"`
	// Skipped marks a stage with no communication on either layer (e.g. a
	// donate stage whose put-aside sets are all empty).
	Skipped bool `json:"skipped,omitempty"`
}

// Report summarizes one scenario's conformance run. A returned Report means
// every executed primitive byte-matched and stayed within budget; any
// violation surfaces as an error instead.
type Report struct {
	Scenario        string            `json:"scenario"`
	Seed            uint64            `json:"seed"`
	Vertices        int               `json:"vertices"`
	Machines        int               `json:"machines"`
	Dilation        int               `json:"dilation"`
	ModelBandwidth  int               `json:"model_bandwidth"`
	EngineBandwidth int               `json:"engine_bandwidth"`
	Primitives      []PrimitiveReport `json:"primitives"`
}

// DefaultEngineBandwidth is the per-link cap conformance engines run under.
// The cost model pipelines payloads wider than its Θ(log n) bandwidth over
// ⌈bits/B⌉ charged rounds; the engine instead delivers a whole payload in
// one physical round, so its cap must admit the largest aggregated record
// set while the round comparison stays sound (pipelining only increases the
// charged side).
const DefaultEngineBandwidth = 1 << 20

// Conformance runs the full primitive-by-primitive harness for one scenario.
func Conformance(sc Scenario, seed uint64, engineBandwidth int) (*Report, error) {
	if engineBandwidth <= 0 {
		engineBandwidth = DefaultEngineBandwidth
	}
	h, err := sc.Build(seed)
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: build: %w", sc.Name, err)
	}
	exp, err := graph.Expand(h, sc.Expand, graph.NewRand(seed^0xc0ffee))
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: expand: %w", sc.Name, err)
	}
	nG := exp.G.N()
	if nG < 2 {
		nG = 2
	}
	modelB := 2*bits.Len(uint(nG)) + 16
	cost, err := network.NewCostModel(modelB)
	if err != nil {
		return nil, err
	}
	cg, err := cluster.New(h, exp, cost)
	if err != nil {
		return nil, fmt.Errorf("distsim: %s: cluster: %w", sc.Name, err)
	}
	rep := &Report{
		Scenario:        sc.Name,
		Seed:            seed,
		Vertices:        h.N(),
		Machines:        exp.G.N(),
		Dilation:        cg.Dilation,
		ModelBandwidth:  modelB,
		EngineBandwidth: engineBandwidth,
	}

	// Primitive 1: the fingerprint aggregation wave.
	if err := conformWave(cg, seed, engineBandwidth, rep); err != nil {
		return nil, fmt.Errorf("distsim: %s: %w", sc.Name, err)
	}
	// Primitive 2: the canonical leader broadcast/exchange/convergecast.
	if err := conformLeaderRound(cg, seed, engineBandwidth, rep); err != nil {
		return nil, fmt.Errorf("distsim: %s: %w", sc.Name, err)
	}
	// Primitives 3–5: the traced per-clique stages of the pipeline.
	params := core.DefaultParams(h.N())
	if sc.Params != nil {
		params = sc.Params(h.N())
	}
	params.Seed = seed
	var traces []*core.StageTrace
	if _, _, err := core.ColorTraced(cg, params, func(tr *core.StageTrace) {
		traces = append(traces, tr)
	}); err != nil {
		return nil, fmt.Errorf("distsim: %s: pipeline: %w", sc.Name, err)
	}
	for _, tr := range traces {
		if err := conformStage(cg, tr, engineBandwidth, rep); err != nil {
			return nil, fmt.Errorf("distsim: %s: %w", sc.Name, err)
		}
	}
	return rep, nil
}

func conformWave(cg *cluster.CG, seed uint64, engineBandwidth int, rep *Report) error {
	samples := drawSamples(cg.H.N(), 24, graph.NewRand(seed^0x5eed))
	sub, err := network.NewCostModel(cg.Cost().Bandwidth())
	if err != nil {
		return err
	}
	var want sketch.Arena[int8]
	if _, err := sketch.Collect(cg.WithCost(sub), "conf/wave", sketch.MaxKernel{}, samples, &want, sketch.CollectOptions{}); err != nil {
		return fmt.Errorf("wave: vertex level: %w", err)
	}
	got, stats, _, err := FingerprintWave(cg, samples, engineBandwidth, 1)
	if err != nil {
		return fmt.Errorf("wave: %w", err)
	}
	for v := 0; v < cg.H.N(); v++ {
		for i, w := range want.Row(v) {
			if got[v][i] != w {
				return fmt.Errorf("wave: vertex %d trial %d: machine %d != vertex %d", v, i, got[v][i], w)
			}
		}
	}
	if err := CheckBudget("wave", stats, sub.Rounds(), engineBandwidth); err != nil {
		return err
	}
	rep.Primitives = append(rep.Primitives, PrimitiveReport{
		Primitive:     "wave",
		CommRounds:    CommRounds(stats),
		ChargedRounds: sub.Rounds(),
		MaxLinkBits:   stats.MaxLinkBits,
		TotalBits:     stats.TotalBits,
		Messages:      stats.Messages,
	})
	return nil
}

func conformLeaderRound(cg *cluster.CG, seed uint64, engineBandwidth int, rep *Report) error {
	rng := rand.New(rand.NewPCG(seed^0x1eade4, seed|1))
	vals := make([]uint64, cg.H.N())
	for v := range vals {
		vals[v] = rng.Uint64()
	}
	leaderValue := func(v int) uint64 { return vals[v] }
	combine := func(a, b uint64) uint64 {
		if a > b {
			return a
		}
		return b
	}
	sub, err := network.NewCostModel(cg.Cost().Bandwidth())
	if err != nil {
		return err
	}
	want, err := cg.WithCost(sub).LeaderRound("conf/leader", 64, leaderValue, 0, combine)
	if err != nil {
		return fmt.Errorf("leader-round: vertex level: %w", err)
	}
	got, stats, err := LeaderRound(cg, 64, engineBandwidth, leaderValue, 0, combine)
	if err != nil {
		return fmt.Errorf("leader-round: %w", err)
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("leader-round: vertex %d: machine %d != vertex %d", v, got[v], want[v])
		}
	}
	if err := CheckBudget("leader-round", stats, sub.Rounds(), engineBandwidth); err != nil {
		return err
	}
	rep.Primitives = append(rep.Primitives, PrimitiveReport{
		Primitive:     "leader-round",
		CommRounds:    CommRounds(stats),
		ChargedRounds: sub.Rounds(),
		MaxLinkBits:   stats.MaxLinkBits,
		TotalBits:     stats.TotalBits,
		Messages:      stats.Messages,
	})
	return nil
}

// conformStage re-executes one traced per-clique stage on the engine and
// byte-compares it against the pipeline's recorded outcome.
func conformStage(cg *cluster.CG, tr *core.StageTrace, engineBandwidth int, rep *Report) error {
	if tr.Stage == "decompose" {
		// The decomposition trace is vertex-level (fingerprint waves + BFS,
		// no per-clique tasks or snapshot); its machine-level behaviour is
		// conformed by the standalone fingerprint-wave primitive above.
		rep.Primitives = append(rep.Primitives, PrimitiveReport{
			Primitive: tr.Stage, ChargedRounds: tr.ChargedRounds, Skipped: true,
		})
		return nil
	}
	spec := StageSpec{
		BaseSeed: tr.BaseSeed,
		Delta:    tr.Snapshot.Delta(),
	}
	switch {
	case strings.HasPrefix(tr.Stage, "matching"):
		spec.Kind = StageMatching
		spec.Matching = tr.Matching
	case strings.HasPrefix(tr.Stage, "sct"):
		spec.Kind = StageSCT
		spec.SCT = tr.SCT
	case tr.Stage == "donate":
		spec.Kind = StageDonate
		spec.Donate = tr.Donate
	default:
		return fmt.Errorf("stage %q: unknown kind", tr.Stage)
	}
	if spec.Kind == StageDonate {
		// A donate stage whose put-aside sets are all empty exchanges
		// nothing on either layer; there is no protocol to conform.
		empty := true
		for _, t := range tr.Donate {
			if len(t.PutAside) > 0 {
				empty = false
				break
			}
		}
		if empty {
			rep.Primitives = append(rep.Primitives, PrimitiveReport{
				Primitive: tr.Stage, Cliques: len(tr.Donate), Skipped: true,
			})
			return nil
		}
	}
	out, err := RunStage(cg, tr.Snapshot, spec, engineBandwidth)
	if err != nil {
		return fmt.Errorf("stage %q: %w", tr.Stage, err)
	}
	if !reflect.DeepEqual(out.Writes, tr.Writes) {
		return fmt.Errorf("stage %q: machine writes diverge from vertex-level writes:\n machine: %v\n vertex:  %v",
			tr.Stage, out.Writes, tr.Writes)
	}
	switch spec.Kind {
	case StageMatching:
		if !reflect.DeepEqual(out.Repeats, tr.MatchingRepeats) {
			return fmt.Errorf("stage %q: repeats diverge: machine %v vertex %v", tr.Stage, out.Repeats, tr.MatchingRepeats)
		}
	case StageSCT:
		if !reflect.DeepEqual(out.Colored, tr.SCTColored) {
			return fmt.Errorf("stage %q: colored counts diverge: machine %v vertex %v", tr.Stage, out.Colored, tr.SCTColored)
		}
	case StageDonate:
		if !reflect.DeepEqual(out.DonateAux, tr.DonateAux) {
			return fmt.Errorf("stage %q: donate outcomes diverge: machine %v vertex %v", tr.Stage, out.DonateAux, tr.DonateAux)
		}
	}
	if err := CheckBudget(tr.Stage, out.Stats, tr.ChargedRounds, engineBandwidth); err != nil {
		return err
	}
	rep.Primitives = append(rep.Primitives, PrimitiveReport{
		Primitive:     tr.Stage,
		Cliques:       len(tr.Writes),
		CommRounds:    CommRounds(out.Stats),
		ChargedRounds: tr.ChargedRounds,
		MaxLinkBits:   out.Stats.MaxLinkBits,
		TotalBits:     out.Stats.TotalBits,
		Messages:      out.Stats.Messages,
	})
	return nil
}

// Matrix is the conformance scenario matrix: the workload families of the
// experiment battery (GNP, geometric, Barabási–Albert, ring-of-cliques,
// random trees, planted ACD) crossed with the machine topologies of the
// expansion layer, including a redundant-link cell for the Section 1.1
// double-counting hazard. Dense instances (planted, ring-of-cliques) take
// the high-degree pipeline, so their runs conform every per-clique
// primitive; sparse ones exercise the wave and leader-round protocols on
// diverse cluster shapes.
func Matrix() []Scenario {
	return []Scenario{
		{
			Name: "gnp/singleton",
			Build: func(seed uint64) (*graph.Graph, error) {
				return graph.GNP(240, 0.12, graph.NewRand(seed))
			},
			Expand: graph.ExpandSpec{Topology: graph.TopologySingleton},
		},
		{
			Name: "geometric/star",
			Build: func(seed uint64) (*graph.Graph, error) {
				radius := math.Sqrt(18 / (math.Pi * 220))
				g, _, err := graph.RandomGeometric(220, radius, graph.NewRand(seed))
				return g, err
			},
			Expand: graph.ExpandSpec{Topology: graph.TopologyStar, MachinesPerCluster: 3},
		},
		{
			Name: "ba/tree",
			Build: func(seed uint64) (*graph.Graph, error) {
				return graph.BarabasiAlbert(260, 6, graph.NewRand(seed))
			},
			Expand: graph.ExpandSpec{Topology: graph.TopologyTree, MachinesPerCluster: 4},
		},
		{
			Name: "ringcliques/path",
			Build: func(seed uint64) (*graph.Graph, error) {
				return graph.RingOfCliques(10, 40)
			},
			Expand: graph.ExpandSpec{Topology: graph.TopologyPath, MachinesPerCluster: 3},
		},
		{
			Name: "tree/star",
			Build: func(seed uint64) (*graph.Graph, error) {
				return graph.RandomTree(200, graph.NewRand(seed)), nil
			},
			Expand: graph.ExpandSpec{Topology: graph.TopologyStar, MachinesPerCluster: 4},
		},
		{
			Name: "planted/redundant",
			Build: func(seed uint64) (*graph.Graph, error) {
				h, _, err := graph.PlantedACD(graph.PlantedACDSpec{
					NumCliques:     4,
					CliqueSize:     40,
					DropFraction:   0.05,
					ExternalDegree: 3,
					SparseN:        100,
					SparseP:        0.1,
				}, graph.NewRand(seed))
				return h, err
			},
			Expand: graph.ExpandSpec{Topology: graph.TopologyStar, MachinesPerCluster: 3, RedundantLinks: 2},
		},
	}
}
