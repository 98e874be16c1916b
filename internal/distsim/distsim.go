// Package distsim executes cluster-graph primitives at true machine
// granularity on the message-passing round engine (network.Engine), rather
// than through the vertex-level cost-charged layer. It exists to validate
// the layer: a primitive executed here — real messages over real links,
// every machine an independent state machine — must produce exactly the
// results the vertex-level simulation computes, and must respect the
// bandwidth cap with the round counts the cost model charges.
//
// The package is a conformance subsystem covering every cluster primitive
// the pipeline relies on:
//
//   - the fingerprint aggregation wave (Section 5 / Lemma 5.7) in this
//     file: leaders broadcast their cluster's geometric sample row down the
//     support trees, boundary machines exchange sketches over
//     inter-cluster links, and the per-link maxima aggregate back up;
//     idempotence of max makes it immune to redundant inter-cluster links
//     (the Section 1.1 double-counting hazard). Rows are the int8 max-kernel
//     rows of internal/sketch, merged by sketch.MergeMax8, and the vertex-level
//     reference is sketch.Collect over the same sample arena;
//   - the canonical leader broadcast/exchange/convergecast H-round
//     (leaderround.go), the machine counterpart of cluster.CG.LeaderRound;
//   - the per-clique stage primitives — colorful matching, synchronized
//     color trial, put-aside donation — as an announce+gossip protocol
//     after which each member leader runs the pipeline's own core job on a
//     coloring.CliqueView built from its records (stage.go).
//
// Conformance (conformance.go) is the differential harness tying them
// together: it traces the pipeline's stages via core.ColorTraced, re-runs
// each on the engine with the same RowSeed-derived seeds, and asserts
// byte-conformance, rounds ≤ charged (CheckBudget, budget.go), and the
// per-link bandwidth cap across the scenario matrix.
package distsim

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"clustercolor/internal/cluster"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/sketch"
)

// phase tags of the wave protocol.
const (
	phaseDown     = iota // sketch travelling from the leader toward leaves
	phaseExchange        // sketch crossing an inter-cluster link
	phaseUp              // aggregated sketch travelling back to the leader
)

type payload struct {
	phase int
	row   []int8
}

// waveMachine is one machine of the communication network running the
// fingerprint wave. All state is owned by the machine (the shared topology
// is read-only); Step is driven concurrently by the engine.
type waveMachine struct {
	t  *machineTopo
	id int

	mu sync.Mutex
	// own is the cluster's sample row (held by the leader).
	own []int8
	// down is the sketch received from the parent (own samples at leader).
	down []int8
	// acc accumulates the neighbor maxima on the way up.
	acc []int8
	// pendingUp counts children yet to report.
	pendingUp int
	// pendingExchange counts cross-link peers yet to send their sketch
	// (each sends exactly one; waiting on all of them prevents losing
	// contributions from clusters with deeper trees).
	pendingExchange int
	sentDown        bool
	exchanged       bool
	sentUp          bool
	// result is the final neighbor sketch (leader only).
	result []int8
	done   bool
}

func (m *waveMachine) Step(round int, inbox []network.Message) ([]network.Message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []network.Message
	for _, msg := range inbox {
		p, ok := msg.Payload.(payload)
		if !ok {
			return nil, fmt.Errorf("distsim: machine %d got %T", m.id, msg.Payload)
		}
		switch p.phase {
		case phaseDown:
			if m.down != nil {
				return nil, fmt.Errorf("distsim: machine %d double down", m.id)
			}
			m.down = cloneRow(p.row)
		case phaseExchange:
			// Merge the neighbor cluster's sketch into the accumulator.
			if err := mergeRow(m.acc, p.row); err != nil {
				return nil, err
			}
			m.pendingExchange--
			if m.pendingExchange < 0 {
				return nil, fmt.Errorf("distsim: machine %d got excess exchange messages", m.id)
			}
		case phaseUp:
			if err := mergeRow(m.acc, p.row); err != nil {
				return nil, err
			}
			m.pendingUp--
			if m.pendingUp < 0 {
				return nil, fmt.Errorf("distsim: machine %d got excess up-messages", m.id)
			}
		}
	}
	// Leader seeds the down phase in round 0.
	if m.t.leader[m.id] && m.down == nil {
		m.down = cloneRow(m.own)
	}
	// Forward down once the sketch arrived.
	if m.down != nil && !m.sentDown {
		m.sentDown = true
		for _, c := range m.t.children[m.id] {
			out = append(out, m.send(int(c), phaseDown, m.down))
		}
	}
	// Exchange across inter-cluster links once we know our cluster's value.
	if m.down != nil && !m.exchanged {
		m.exchanged = true
		for _, ce := range m.t.cross[m.id] {
			out = append(out, m.send(int(ce.peer), phaseExchange, m.down))
		}
	}
	// Report up once every child reported and every expected exchange
	// message has arrived.
	if m.exchanged && m.pendingUp == 0 && m.pendingExchange == 0 && !m.sentUp {
		m.sentUp = true
		if m.t.leader[m.id] {
			m.result = cloneRow(m.acc)
			m.done = true
		} else {
			out = append(out, m.send(int(m.t.parent[m.id]), phaseUp, m.acc))
		}
	}
	return out, nil
}

func (m *waveMachine) send(to, phase int, row []int8) network.Message {
	return network.Message{
		From:    m.id,
		To:      to,
		Bits:    sketch.MaxKernel{}.EncodedBits(row),
		Payload: payload{phase: phase, row: cloneRow(row)},
	}
}

// cloneRow returns a copy of row (non-nil even when empty: a nil down row
// means "not yet received").
func cloneRow(row []int8) []int8 {
	out := make([]int8, len(row))
	copy(out, row)
	return out
}

// mergeRow folds src into dst. A row of the wrong length is a malformed
// message, so it is an error returned from Step, not MergeMax8's panic.
func mergeRow(dst, src []int8) error {
	if len(src) != len(dst) {
		return fmt.Errorf("distsim: sketch lengths %d != %d", len(src), len(dst))
	}
	sketch.MergeMax8(dst, src)
	return nil
}

// emptyRow fills row with the max kernel's identity and returns it.
func emptyRow(row []int8) []int8 {
	for i := range row {
		row[i] = sketch.Empty
	}
	return row
}

// drawSamples draws a fingerprint sample row of t cells for each of n
// vertices, in vertex order.
func drawSamples(n, t int, rng *rand.Rand) *sketch.Arena[int8] {
	var samples sketch.Arena[int8]
	samples.Reset(n, t)
	for v := 0; v < n; v++ {
		fingerprint.Draw(samples.Row(v), rng)
	}
	return &samples
}

// WaveRoundBudget is the provable round bound of the fingerprint wave on a
// cluster graph with the given dilation D (the maximum support-tree height):
//
//   - down: a machine at tree depth k first holds its cluster's sketch in
//     round k (the leader seeds it in round 0 and every hop costs one
//     round), so the deepest machine holds it by round D;
//   - exchange: a machine sends its cross-link sketches in the round it
//     first holds the down-sketch, so every exchange message is delivered
//     by round D+1;
//   - up: by induction, a machine at depth k has all child reports and all
//     exchange inputs by round 2D+1−k and reports up in that round, so the
//     leader (k = 0) completes during round 2D+1.
//
// Executing rounds 0..2D+1 takes 2D+2 = 2·(D+1) engine steps, and the D = 0
// case (singleton clusters: exchange in round 0, merge in round 1) meets
// the bound exactly, so the budget is tight.
func WaveRoundBudget(dilation int) int { return 2 * (dilation + 1) }

// FingerprintWave executes the Lemma 5.7 aggregation at machine level: each
// vertex's sample row lives at its leader; the returned rows are the
// per-vertex neighbor maxima, computed purely by message passing — the same
// rows sketch.Collect folds at vertex level. The machines of G run on the
// engine over the shards-slice partition of G; the returned sketches and
// LinkStats are byte-identical at every shard count, and the cross-slice
// message count (network.Engine.Exchanged) is returned for traffic
// inspection.
//
// bandwidthBits caps per-link traffic per round; sketches larger than the
// cap make the engine fail, mirroring the model (callers pick the cap or
// pass 0 to disable, accounting pipelining separately).
func FingerprintWave(cg *cluster.CG, samples *sketch.Arena[int8], bandwidthBits, shards int) ([][]int8, network.LinkStats, int64, error) {
	wave, err := buildWaveMachines(cg, samples)
	if err != nil {
		return nil, network.LinkStats{}, 0, err
	}
	machines := make([]network.Machine, len(wave))
	for i, wm := range wave {
		machines[i] = wm
	}
	eng, err := newEngine(cg.G, shards, machines, bandwidthBits)
	if err != nil {
		return nil, network.LinkStats{}, 0, err
	}
	defer eng.Close()
	_, err = eng.Run(WaveRoundBudget(cg.Dilation), waveDone(wave))
	exRows, _ := eng.Exchanged()
	if err != nil {
		return nil, eng.Stats(), exRows, err
	}
	return waveResults(cg, wave), eng.Stats(), exRows, nil
}

// newEngine returns the round engine over the shards-slice partition of g.
func newEngine(g *graph.Graph, shards int, machines []network.Machine, bandwidthBits int) (*network.Engine, error) {
	sg, err := graph.NewShardedGraph(g, shards)
	if err != nil {
		return nil, err
	}
	return network.NewEngine(sg, machines, bandwidthBits)
}

// buildWaveMachines constructs the wave protocol's machine set for cg.
func buildWaveMachines(cg *cluster.CG, samples *sketch.Arena[int8]) ([]*waveMachine, error) {
	g := cg.G
	if samples.Rows() != cg.H.N() {
		return nil, fmt.Errorf("distsim: %d sample rows for %d vertices", samples.Rows(), cg.H.N())
	}
	t := samples.Trials()
	topo := newMachineTopo(cg)
	wave := make([]*waveMachine, g.N())
	for mID := 0; mID < g.N(); mID++ {
		wm := &waveMachine{
			t:   topo,
			id:  mID,
			acc: emptyRow(make([]int8, t)),
		}
		if topo.leader[mID] {
			wm.own = samples.Row(int(topo.cluster[mID]))
		}
		wm.pendingUp = len(topo.children[mID])
		wm.pendingExchange = len(topo.cross[mID])
		wave[mID] = wm
	}
	return wave, nil
}

// waveDone reports whether every leader has its aggregated result.
func waveDone(wave []*waveMachine) func() bool {
	return func() bool {
		for _, wm := range wave {
			if wm.t.leader[wm.id] {
				wm.mu.Lock()
				done := wm.done
				wm.mu.Unlock()
				if !done {
					return false
				}
			}
		}
		return true
	}
}

// waveResults gathers the per-vertex neighbor sketches from the leaders.
func waveResults(cg *cluster.CG, wave []*waveMachine) [][]int8 {
	out := make([][]int8, cg.H.N())
	if len(wave) == 0 {
		return out
	}
	topo := wave[0].t
	for v := 0; v < cg.H.N(); v++ {
		wm := wave[topo.leaderOf[v]]
		wm.mu.Lock()
		out[v] = cloneRow(wm.result)
		wm.mu.Unlock()
	}
	return out
}
