package network

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"clustercolor/internal/graph"
)

// spawnEngine is the reference the Engine is checked against: the original
// round loop, with one fresh goroutine per machine per round, sequential
// validation and delivery over the global graph, inboxes sorted by sender
// explicitly, and fresh allocations throughout.
type spawnEngine struct {
	g         *graph.Graph
	machines  []Machine
	bandwidth int
	round     int
	stats     LinkStats
	pending   [][]Message
}

func newSpawnEngine(g *graph.Graph, machines []Machine, bandwidthBits int) *spawnEngine {
	return &spawnEngine{g: g, machines: machines, bandwidth: bandwidthBits, pending: make([][]Message, g.N())}
}

func (s *spawnEngine) Step() error {
	n := s.g.N()
	outboxes := make([][]Message, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inbox := s.pending[i]
			s.pending[i] = nil
			outboxes[i], errs[i] = s.machines[i].Step(s.round, inbox)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("network: machine %d round %d: %w", i, s.round, err)
		}
	}
	linkBits := make(map[[2]int32]int)
	for from, out := range outboxes {
		for _, msg := range out {
			if msg.From != from {
				return fmt.Errorf("network: machine %d forged sender %d", from, msg.From)
			}
			if msg.To < 0 || msg.To >= n || !s.g.HasEdge(msg.From, msg.To) {
				return fmt.Errorf("network: message %d->%d without link", msg.From, msg.To)
			}
			linkBits[linkKey(msg.From, msg.To)] += msg.Bits
			s.stats.TotalBits += int64(msg.Bits)
			s.stats.Messages++
			s.pending[msg.To] = append(s.pending[msg.To], msg)
		}
	}
	roundMax, err := checkLinkCap(linkBits, s.bandwidth, s.round)
	if err != nil {
		return err
	}
	s.stats.MaxLinkBits = max(s.stats.MaxLinkBits, roundMax)
	for _, inbox := range s.pending {
		slices.SortStableFunc(inbox, func(a, b Message) int { return cmp.Compare(a.From, b.From) })
	}
	s.round++
	s.stats.Rounds = s.round
	return nil
}

// newEngine builds an engine over the k-slice partition of g.
func newEngine(t testing.TB, g *graph.Graph, slices int, machines []Machine, bandwidthBits int) *Engine {
	t.Helper()
	sg, err := graph.NewShardedGraph(g, slices)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(sg, machines, bandwidthBits)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// lockstep steps one machine set on the engine over k slices and a second,
// identically built set on the spawn reference, for up to rounds rounds. It
// fails on the first round whose error or LinkStats differ, stops after a
// round both fail identically, and returns the two machine sets, the
// engine, and the shared error (nil if every round succeeded).
func lockstep(t *testing.T, g *graph.Graph, slices, rounds, bandwidthBits int, build func() []Machine) (got, want []Machine, eng *Engine, err error) {
	t.Helper()
	got, want = build(), build()
	eng = newEngine(t, g, slices, got, bandwidthBits)
	ref := newSpawnEngine(g, want, bandwidthBits)
	for r := 0; r < rounds; r++ {
		gotErr, wantErr := eng.Step(), ref.Step()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("slices=%d round %d: engine error %v, reference error %v", slices, r, gotErr, wantErr)
		}
		if wantErr != nil {
			return got, want, eng, wantErr
		}
		if eng.Stats() != ref.stats {
			t.Fatalf("slices=%d round %d: LinkStats %+v, reference %+v", slices, r, eng.Stats(), ref.stats)
		}
	}
	return got, want, eng, nil
}

// equivalenceGraphs are the topologies the engine must match the reference
// on: a sparse random graph, a clique (every pair of slices linked) and a
// path (one link per slice boundary).
func equivalenceGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.MustGNP(120, 0.08, graph.NewRand(31))},
		{"clique", graph.Clique(12)},
		{"path", graph.Path(30)},
	}
}

var sliceCounts = []int{1, 2, 4}

// floodMachine implements a simple BFS flood: the source emits a token; each
// machine forwards the token to all neighbors the round after first hearing
// it. Used to validate the engine against known BFS depths.
type floodMachine struct {
	id        int
	neighbors []int32
	heardAt   int // -1 until heard
	forwarded bool
}

func (m *floodMachine) Step(round int, inbox []Message) ([]Message, error) {
	if m.heardAt < 0 && len(inbox) > 0 {
		m.heardAt = round
	}
	if m.heardAt >= 0 && !m.forwarded {
		m.forwarded = true
		out := make([]Message, 0, len(m.neighbors))
		for _, nb := range m.neighbors {
			out = append(out, Message{From: m.id, To: int(nb), Bits: 1, Payload: "token"})
		}
		return out, nil
	}
	return nil, nil
}

func newFlood(g *graph.Graph, src int) []Machine {
	ms := make([]Machine, g.N())
	for i := 0; i < g.N(); i++ {
		fm := &floodMachine{id: i, neighbors: g.Neighbors(i), heardAt: -1}
		if i == src {
			fm.heardAt = 0
		}
		ms[i] = fm
	}
	return ms
}

func TestEngineFloodMatchesBFS(t *testing.T) {
	rng := graph.NewRand(17)
	g := graph.MustGNP(40, 0.15, rng)
	labels, count := g.ConnectedComponents()
	src := 0
	machines := newFlood(g, src)
	eng := newEngine(t, g, 1, machines, 64)
	for i := 0; i < g.N()+2; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	depth, _ := g.BFSDepths(src, nil)
	for v := 0; v < g.N(); v++ {
		fm := machines[v].(*floodMachine)
		if labels[v] != labels[src] {
			if fm.heardAt >= 0 {
				t.Fatalf("machine %d in other component heard token", v)
			}
			continue
		}
		// heardAt should be exactly the BFS depth: token crosses one hop
		// per round.
		if fm.heardAt != depth[v] {
			t.Fatalf("machine %d heardAt=%d, BFS depth=%d (components=%d)", v, fm.heardAt, depth[v], count)
		}
	}
	if eng.Stats().Messages == 0 || eng.Stats().TotalBits == 0 {
		t.Fatal("no traffic recorded")
	}
}

// TestEngineSchedulersAgreeFlood runs the flood to quiescence on the engine
// at 1, 2 and 4 slices and on the spawn reference: hear times and LinkStats
// must match round for round, and cross-slice traffic must appear exactly
// when the partition cuts edges.
func TestEngineSchedulersAgreeFlood(t *testing.T) {
	for _, tg := range equivalenceGraphs() {
		g := tg.g
		for _, k := range sliceCounts {
			t.Run(fmt.Sprintf("%s/slices=%d", tg.name, k), func(t *testing.T) {
				got, want, eng, err := lockstep(t, g, k, g.N()+2, 0, func() []Machine { return newFlood(g, 0) })
				if err != nil {
					t.Fatal(err)
				}
				for v := range got {
					if h, w := got[v].(*floodMachine).heardAt, want[v].(*floodMachine).heardAt; h != w {
						t.Fatalf("machine %d heardAt=%d, reference %d", v, h, w)
					}
				}
				rows, bits := eng.Exchanged()
				if k == 1 && (rows != 0 || bits != 0) {
					t.Fatalf("one slice exchanged %d rows, %d bits", rows, bits)
				}
				if k > 1 && rows == 0 {
					t.Fatal("no cross-slice traffic on a connected graph")
				}
			})
		}
	}
}

// recorderMachine gossips for a few rounds and records the exact inbox
// sequence (sender order included) it observes each round.
type recorderMachine struct {
	id        int
	neighbors []int32
	history   [][]int
}

func (m *recorderMachine) Step(round int, inbox []Message) ([]Message, error) {
	froms := make([]int, 0, len(inbox))
	for _, msg := range inbox {
		froms = append(froms, msg.From)
	}
	m.history = append(m.history, froms)
	if round >= 3 {
		return nil, nil
	}
	out := make([]Message, 0, 2*len(m.neighbors))
	for _, nb := range m.neighbors {
		out = append(out, Message{From: m.id, To: int(nb), Bits: 2, Payload: round})
	}
	// A second message to the lowest neighbor pins that one sender's
	// messages keep their emission order.
	if len(m.neighbors) > 0 {
		out = append(out, Message{From: m.id, To: int(m.neighbors[0]), Bits: 1, Payload: -round})
	}
	return out, nil
}

func newRecorders(g *graph.Graph) []Machine {
	ms := make([]Machine, g.N())
	for i := range ms {
		ms[i] = &recorderMachine{id: i, neighbors: g.Neighbors(i)}
	}
	return ms
}

// TestEngineInboxOrderDeterministic checks the sorted-inbox contract: the
// exact sender sequence of every inbox in every round is the spawn
// reference's at 1, 2 and 4 slices.
func TestEngineInboxOrderDeterministic(t *testing.T) {
	for _, tg := range equivalenceGraphs() {
		g := tg.g
		for _, k := range sliceCounts {
			t.Run(fmt.Sprintf("%s/slices=%d", tg.name, k), func(t *testing.T) {
				got, want, _, err := lockstep(t, g, k, 5, 0, func() []Machine { return newRecorders(g) })
				if err != nil {
					t.Fatal(err)
				}
				for v := range got {
					gh, wh := got[v].(*recorderMachine).history, want[v].(*recorderMachine).history
					if len(gh) != len(wh) {
						t.Fatalf("machine %d history length %d, reference %d", v, len(gh), len(wh))
					}
					for r := range gh {
						if !slices.Equal(gh[r], wh[r]) {
							t.Fatalf("machine %d round %d: senders %v, reference %v", v, r, gh[r], wh[r])
						}
					}
				}
			})
		}
	}
}

type stepFunc func(round int, inbox []Message) ([]Message, error)

func (f stepFunc) Step(round int, inbox []Message) ([]Message, error) { return f(round, inbox) }

type idleMachine struct{}

func (idleMachine) Step(int, []Message) ([]Message, error) { return nil, nil }

// faulty returns n idle machines except that each machine in sends emits,
// in round 0, the messages sends lists for it.
func faulty(n int, sends map[int][]Message) []Machine {
	ms := make([]Machine, n)
	for i := range ms {
		ms[i] = idleMachine{}
	}
	for id, out := range sends {
		out := out
		ms[id] = stepFunc(func(round int, inbox []Message) ([]Message, error) {
			if round > 0 {
				return nil, nil
			}
			return out, nil
		})
	}
	return ms
}

// TestEnginePooledErrors checks that every fault surfaces as the spawn
// reference's first error at 1, 2 and 4 slices: machine errors before
// message errors, the lowest faulty machine first, and a bandwidth violation
// naming the lowest link over the cap.
func TestEnginePooledErrors(t *testing.T) {
	g := graph.Clique(8)
	boom := errors.New("boom")
	cases := []struct {
		name      string
		bandwidth int
		machines  func() []Machine
		want      string
	}{
		{"machine error", 0, func() []Machine {
			ms := faulty(8, map[int][]Message{2: {{From: 2, To: 9, Bits: 1}}})
			ms[5] = stepFunc(func(int, []Message) ([]Message, error) { return nil, boom })
			return ms
		}, "machine 5 round 0: boom"},
		{"forged sender", 0, func() []Machine {
			return faulty(8, map[int][]Message{3: {{From: 3, To: 4, Bits: 1}, {From: 6, To: 4, Bits: 1}}})
		}, "machine 3 forged sender 6"},
		{"lowest faulty machine", 0, func() []Machine {
			return faulty(8, map[int][]Message{
				6: {{From: 6, To: 6, Bits: 1}},
				4: {{From: 4, To: 1, Bits: 1}, {From: 4, To: -1, Bits: 1}, {From: 4, To: 8, Bits: 1}},
			})
		}, "message 4->-1 without link"},
		{"lowest link over the cap", 4, func() []Machine {
			return faulty(8, map[int][]Message{
				1: {{From: 1, To: 7, Bits: 5}},
				6: {{From: 6, To: 2, Bits: 3}, {From: 6, To: 3, Bits: 9}},
				2: {{From: 2, To: 6, Bits: 2}},
			})
		}, "link {1,7} carried 5 bits > bandwidth 4"},
		{"both directions of a link", 4, func() []Machine {
			return faulty(8, map[int][]Message{
				2: {{From: 2, To: 6, Bits: 3}},
				6: {{From: 6, To: 2, Bits: 2}},
			})
		}, "link {2,6} carried 5 bits > bandwidth 4"},
	}
	for _, tc := range cases {
		for _, k := range sliceCounts {
			t.Run(fmt.Sprintf("%s/slices=%d", tc.name, k), func(t *testing.T) {
				_, _, _, err := lockstep(t, g, k, 2, tc.bandwidth, tc.machines)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %v, want %q", err, tc.want)
				}
			})
		}
	}
}

// TestEngineRejectsNonLinkMessage checks that a message to a non-neighbor
// fails with the link error at every slice count, whether the recipient is
// owned by the sender's slice, owned by another slice, or outside [0, n)
// altogether.
func TestEngineRejectsNonLinkMessage(t *testing.T) {
	g := graph.Path(8) // edges {i, i+1}
	for _, k := range sliceCounts {
		t.Run(fmt.Sprintf("slices=%d", k), func(t *testing.T) {
			for _, to := range []int{2, 7, -1, 8} {
				eng := newEngine(t, g, k, faulty(8, map[int][]Message{0: {{From: 0, To: to, Bits: 1}}}), 0)
				err := eng.Step()
				want := fmt.Sprintf("message 0->%d without link", to)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("to=%d: error %v, want %q", to, err, want)
				}
			}
		})
	}
}

func TestEngineRejectsForgedSender(t *testing.T) {
	eng := newEngine(t, graph.Path(2), 1, faulty(2, map[int][]Message{0: {{From: 5, To: 1, Bits: 1}}}), 0)
	if err := eng.Step(); err == nil {
		t.Fatal("forged sender accepted")
	}
}

// TestEngineEnforcesBandwidth checks the cap on the merged per-link totals:
// a one-bit flood on a clique, which loads a link with one message each way
// in the round every machine forwards, passes a cap of 2 at every slice
// count, and a wide message on a link that crosses slices trips it.
func TestEngineEnforcesBandwidth(t *testing.T) {
	g := graph.Clique(6)
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("slices=%d", k), func(t *testing.T) {
			eng := newEngine(t, g, k, newFlood(g, 0), 2)
			for i := 0; i < g.N()+2; i++ {
				if err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if eng.Stats().MaxLinkBits != 2 {
				t.Fatalf("MaxLinkBits = %d, want 2", eng.Stats().MaxLinkBits)
			}
			wide := newEngine(t, g, k, faulty(6, map[int][]Message{0: {{From: 0, To: 5, Bits: 9}}}), 2)
			if err := wide.Step(); err == nil || !strings.Contains(err.Error(), "bandwidth") {
				t.Fatalf("want bandwidth violation, got %v", err)
			}
		})
	}
	// Within budget is fine.
	eng := newEngine(t, graph.Path(2), 1, faulty(2, map[int][]Message{0: {{From: 0, To: 1, Bits: 64}}}), 64)
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().MaxLinkBits != 64 {
		t.Fatalf("MaxLinkBits = %d, want 64", eng.Stats().MaxLinkBits)
	}
}

func TestEngineCloseIdempotent(t *testing.T) {
	g := graph.Path(4)
	eng := newEngine(t, g, 1, faulty(4, nil), 0)
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close()
	// Close before first Step must also be safe.
	newEngine(t, g, 2, faulty(4, nil), 0).Close()
}

// TestEngineStepAfterCloseErrors pins the lifecycle contract: Step on a
// closed engine must fail fast instead of dispatching to released workers.
func TestEngineStepAfterCloseErrors(t *testing.T) {
	g := graph.Path(2)
	eng := newEngine(t, g, 1, faulty(2, nil), 0)
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if err := eng.Step(); err == nil {
		t.Fatal("Step after Close succeeded")
	}
	// Close before any Step, then Step: same contract.
	eng2 := newEngine(t, g, 1, faulty(2, nil), 0)
	eng2.Close()
	if err := eng2.Step(); err == nil {
		t.Fatal("Step on never-started closed engine succeeded")
	}
}

func TestEngineEmptyGraph(t *testing.T) {
	eng := newEngine(t, graph.NewBuilder(0).Build(), 1, nil, 0)
	for i := 0; i < 3; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Stats().Rounds; got != 3 {
		t.Fatalf("Rounds = %d, want 3", got)
	}
}

func TestEngineMachineCountMismatch(t *testing.T) {
	sg, err := graph.NewShardedGraph(graph.Path(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(sg, faulty(1, nil), 0); err == nil {
		t.Fatal("machine count mismatch accepted")
	}
}

func TestEngineRunBudget(t *testing.T) {
	eng := newEngine(t, graph.Path(2), 1, faulty(2, nil), 0)
	ran, err := eng.Run(5, func() bool { return false })
	if err == nil {
		t.Fatal("exhausted budget should error")
	}
	if ran != 5 {
		t.Fatalf("ran %d rounds, want 5", ran)
	}
	ran, err = eng.Run(5, func() bool { return true })
	if err != nil || ran != 0 {
		t.Fatalf("Run with immediate done = %d, %v", ran, err)
	}
}

// gossipMachine sends one small message to every neighbor each round: the
// steady-state traffic that stresses the engine's scheduling and delivery
// rather than any particular protocol.
type gossipMachine struct {
	id        int
	neighbors []int32
}

func (m *gossipMachine) Step(round int, inbox []Message) ([]Message, error) {
	out := make([]Message, 0, len(m.neighbors))
	for _, nb := range m.neighbors {
		out = append(out, Message{From: m.id, To: int(nb), Bits: 8, Payload: round})
	}
	return out, nil
}

func newGossip(g *graph.Graph) []Machine {
	ms := make([]Machine, g.N())
	for i := range ms {
		ms[i] = &gossipMachine{id: i, neighbors: g.Neighbors(i)}
	}
	return ms
}

// TestEngineAllocatesLessThanSpawn pins what the worker pool buys over the
// goroutine-per-machine reference: fewer allocations per gossip round, at
// one slice and at four.
func TestEngineAllocatesLessThanSpawn(t *testing.T) {
	g := graph.MustGNP(400, 8.0/400, graph.NewRand(7))
	ref := newSpawnEngine(g, newGossip(g), 0)
	spawn := testing.AllocsPerRun(5, func() {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	})
	for _, k := range []int{1, 4} {
		eng := newEngine(t, g, k, newGossip(g), 0)
		pooled := testing.AllocsPerRun(5, func() {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		})
		if pooled >= spawn {
			t.Errorf("slices=%d: engine allocates %.0f per round, spawn reference %.0f", k, pooled, spawn)
		}
	}
}

// BenchmarkEngineStep measures one gossip round on a 10k-machine GNP network
// (deg≈8, seed 9): the engine over the one-slice and four-slice partitions,
// and the goroutine-per-machine spawn reference.
func BenchmarkEngineStep(b *testing.B) {
	const machines = 10000
	g := graph.MustGNP(machines, 8.0/machines, graph.NewRand(9))
	run := func(b *testing.B, step func() error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name   string
		slices int
	}{{"one-slice", 1}, {"four-slice", 4}} {
		b.Run(c.name, func(b *testing.B) {
			run(b, newEngine(b, g, c.slices, newGossip(g), 0).Step)
		})
	}
	b.Run("spawn-reference", func(b *testing.B) {
		run(b, newSpawnEngine(g, newGossip(g), 0).Step)
	})
}

func TestCostModelChargeAndPipelining(t *testing.T) {
	tests := []struct {
		name       string
		payload    int
		hops       int
		wantRounds int
	}{
		{name: "small payload one hop", payload: 10, hops: 1, wantRounds: 1},
		{name: "exact bandwidth", payload: 64, hops: 1, wantRounds: 1},
		{name: "pipelined", payload: 65, hops: 1, wantRounds: 2},
		{name: "multi hop", payload: 10, hops: 3, wantRounds: 3},
		{name: "pipelined multi hop", payload: 130, hops: 2, wantRounds: 6},
		{name: "zero payload", payload: 0, hops: 1, wantRounds: 1},
		{name: "zero hops coerced", payload: 1, hops: 0, wantRounds: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := NewCostModel(64)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Charge("p", tt.payload, tt.hops); got != tt.wantRounds {
				t.Fatalf("Charge = %d rounds, want %d", got, tt.wantRounds)
			}
			if c.Rounds() != int64(tt.wantRounds) {
				t.Fatalf("Rounds = %d, want %d", c.Rounds(), tt.wantRounds)
			}
		})
	}
}

func TestCostModelParallelTakesMax(t *testing.T) {
	c, err := NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	rounds := c.Parallel("bfs", [][2]int{{10, 2}, {64, 5}, {128, 3}})
	if rounds != 6 { // 128 bits over 3 hops = 2 slots * 3 hops
		t.Fatalf("Parallel = %d rounds, want 6", rounds)
	}
	if c.TotalBits() != 10+64+128 {
		t.Fatalf("TotalBits = %d", c.TotalBits())
	}
	if c.MaxPayload() != 128 {
		t.Fatalf("MaxPayload = %d, want 128", c.MaxPayload())
	}
	if got := c.PhaseRounds()["bfs"]; got != 6 {
		t.Fatalf("phase rounds = %d, want 6", got)
	}
}

func TestCostModelParallelEmpty(t *testing.T) {
	c, err := NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Parallel("noop", nil); got != 1 {
		t.Fatalf("empty Parallel = %d rounds, want 1", got)
	}
}

// TestDefaultBandwidth pins the Θ(log n) default: 2·bits.Len(n) + 16, with
// n below 2 counted as 2.
func TestDefaultBandwidth(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 20}, {1, 20}, {2, 20}, {3, 20}, {1024, 38}, {1 << 20, 58},
	} {
		if got := DefaultBandwidth(tc.n); got != tc.want {
			t.Errorf("DefaultBandwidth(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestCostModelRejectsBadBandwidth(t *testing.T) {
	if _, err := NewCostModel(0); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := NewCostModel(-5); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestCostModelSummary(t *testing.T) {
	c, err := NewCostModel(32)
	if err != nil {
		t.Fatal(err)
	}
	c.Charge("alpha", 10, 1)
	c.Charge("beta", 40, 2)
	s := c.Summary()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "beta") {
		t.Fatalf("summary missing phases: %q", s)
	}
}

func TestCostModelConcurrentCharges(t *testing.T) {
	c, err := NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Charge("concurrent", 64, 1)
		}()
	}
	wg.Wait()
	if c.Rounds() != 50 {
		t.Fatalf("Rounds = %d, want 50", c.Rounds())
	}
}

func TestCostModelAbsorbParallel(t *testing.T) {
	main, err := NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	var subs []*CostModel
	for i, rounds := range []int{3, 7, 5} {
		sub, err := NewCostModel(64)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			sub.Charge("work", 10+i, 1)
		}
		subs = append(subs, sub)
	}
	subs = append(subs, nil) // nil sub-models are tolerated
	main.AbsorbParallel("stage", subs)
	if main.Rounds() != 7 {
		t.Fatalf("absorbed rounds = %d, want max 7", main.Rounds())
	}
	if main.TotalBits() != 3*10+7*11+5*12 {
		t.Fatalf("absorbed bits = %d", main.TotalBits())
	}
	if got := main.PhaseRounds()["stage"]; got != 7 {
		t.Fatalf("phase rounds = %d, want 7", got)
	}
}

func TestCostModelMultiplier(t *testing.T) {
	c, err := NewCostModel(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetMultiplier(0); err == nil {
		t.Fatal("multiplier 0 accepted")
	}
	if err := c.SetMultiplier(3); err != nil {
		t.Fatal(err)
	}
	if got := c.Charge("x", 10, 2); got != 6 {
		t.Fatalf("multiplied charge = %d rounds, want 6", got)
	}
	if got := c.Parallel("y", [][2]int{{10, 2}}); got != 6 {
		t.Fatalf("multiplied parallel = %d rounds, want 6", got)
	}
	if c.Rounds() != 12 {
		t.Fatalf("total = %d, want 12", c.Rounds())
	}
}
