package distsim

import (
	"fmt"
	"math/bits"
	"sync"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/core"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
)

// This file executes the paper's per-clique stage primitives — the colorful
// matching proposal/accept exchange, the synchronized color trial, and the
// put-aside donation handshake — at machine granularity on network.Engine.
//
// The protocol is the same for all three primitives because they share an
// information structure: every decision a clique member takes is a
// deterministic function of (a) the snapshot colors of its H-neighborhood,
// (b) the member-adjacency structure of its almost-clique K, (c) the static
// stage task (membership, flags, thresholds — computed and charged by
// earlier pipeline stages), and (d) one shared O(log n)-bit seed. The
// machine protocol moves exactly that information over real links:
//
//	H-round 1 (announce):  every cluster floods its snapshot color down its
//	                       support tree; boundary machines exchange it over
//	                       inter-cluster links; member clusters convergecast
//	                       a neighborhood report (member-adjacency bits plus
//	                       a bitset of colors held by non-member neighbors)
//	                       to their leaders, who assemble their member record.
//	H-rounds 2–3 (gossip): member leaders flood their record sets through
//	                       the clique. Almost-cliques have K-diameter ≤ 2
//	                       (any two members share a common member-neighbor
//	                       for ε < 1/2), so two gossip rounds give every
//	                       member leader the full record set.
//
// Each member leader then assembles a coloring.CliqueView from its records
// (the view's Reset/SetMember filler, with no charge hook) and runs the
// same core job the vertex-level stage loop runs on the view it fills from
// H (core.MatchingJob, SCTJob, DonateJob), seeded from the gossiped seed,
// and adopts its own vertex's outcome. RunStage first checks every leader's
// view against the one the H filler builds from the snapshot, so a wrong
// record fails by name even where no decision reads it. Record-set unions
// are idempotent, so redundant inter-cluster links (the Section 1.1 hazard)
// cannot corrupt the result. Three H-rounds never exceed what the cost
// model charges for any of the three primitives (each charges at least
// three H-rounds per stage), which CheckBudget asserts per run.

// StageKind selects which per-clique primitive a stage run executes.
type StageKind int

const (
	// StageMatching is the colorful-matching proposal/accept exchange
	// (Lemma 4.9 sampling plus the cabal fingerprint backup).
	StageMatching StageKind = iota + 1
	// StageSCT is the synchronized color trial (Lemma 4.13).
	StageSCT
	// StageDonate is the put-aside donation handshake (Algorithm 8).
	StageDonate
)

func (k StageKind) String() string {
	switch k {
	case StageMatching:
		return "matching"
	case StageSCT:
		return "sct"
	case StageDonate:
		return "donate"
	default:
		return fmt.Sprintf("StageKind(%d)", int(k))
	}
}

// StageSpec describes one machine-level stage run: the primitive, its
// per-clique tasks (the same task structs the vertex-level pipeline runs),
// and the base seed from which clique i derives its RNG stream — the same
// parwork.RowSeed derivation the parallel vertex-level stage loops use.
type StageSpec struct {
	Kind     StageKind
	Matching []core.MatchingTask
	SCT      []core.SCTTask
	Donate   []core.DonateTask
	BaseSeed uint64
	// Delta is the color-space Δ of the snapshot coloring.
	Delta int
}

func (s *StageSpec) tasks() int {
	switch s.Kind {
	case StageMatching:
		return len(s.Matching)
	case StageSCT:
		return len(s.SCT)
	case StageDonate:
		return len(s.Donate)
	}
	return 0
}

func (s *StageSpec) members(i int) []int {
	switch s.Kind {
	case StageMatching:
		return s.Matching[i].Members
	case StageSCT:
		return s.SCT[i].Members
	case StageDonate:
		return s.Donate[i].Members
	}
	return nil
}

// StageOutcome is what a machine-level stage run produced, in the same
// shape the vertex-level stage reports through core.StageTrace.
type StageOutcome struct {
	// Writes lists each clique's snapshot-relative member writes
	// (core.MemberWrites order).
	Writes [][]core.MemberWrite
	// Repeats (matching), Colored (SCT) and DonateAux (donate) are the
	// per-clique auxiliary outcomes; only the stage's own slice is non-nil.
	Repeats   []int
	Colored   []int
	DonateAux []core.DonateAux
	// Stats is the engine's bandwidth/round accounting for the run.
	Stats network.LinkStats
}

// Protocol phases of the stage machines.
const (
	stAnnDown = iota
	stAnnExch
	stAnnUp
	stGossipDown
	stGossipExch
	stGossipUp
)

const gossipRounds = 2 // K-diameter bound of an almost-clique (ε < 1/2)

type stagePayload struct {
	phase  int
	ground int   // gossip round, 1-based (0 for announce phases)
	color  int32 // announce: sender cluster's snapshot color
	adj    []uint64
	ext    []uint64
	recs   []memberRecord
}

// stageRuntime is the read-only context shared by all machines of a run.
type stageRuntime struct {
	spec       *StageSpec
	topo       *machineTopo
	snapColors []int32 // H-vertex -> snapshot color
	cliqueOf   []int32 // H-vertex -> task index, -1 outside every clique
	memberIdx  []int32 // H-vertex -> index in its task's Members
	seeds      []uint64
	refs       []*coloring.CliqueView // per task: the view the H filler builds
	n          int                    // H vertices
	delta      int
	colorBits  int
	idxBits    []int // per task
	adjWords   []int // per task: bitmap words over members
	extWords   int   // bitset words over colors 1..Δ+1
}

func (rt *stageRuntime) recordBits(t int, rec *memberRecord) int {
	b := rt.idxBits[t] + rt.colorBits + len(rec.adj)*64 + len(rec.ext)*64
	if rec.hasSeed {
		b += 64
	}
	return b
}

// stageMachine runs the announce+gossip protocol for one machine.
type stageMachine struct {
	rt *stageRuntime
	id int

	mu sync.Mutex
	// announce state
	color                        int32
	haveColor                    bool
	sentAnn                      bool
	annAdj                       []uint64
	annExt                       []uint64
	annExchPending, annUpPending int
	sentAnnUp                    bool
	// gossip state, indexed by gossip round (0-based internally)
	gotDown                [gossipRounds]bool
	downRecs               [gossipRounds][]memberRecord
	sentDown               [gossipRounds]bool
	upRecs                 [gossipRounds][]memberRecord
	upSeen                 [gossipRounds][]bool // member idx already in upRecs
	exchPending, upPending [gossipRounds]int
	sentUp                 [gossipRounds]bool
	// leader state
	records []memberRecord // merged set, by member idx (nil slots = missing)
	phaseG  int            // next gossip round the leader will launch (0-based)
	done    bool
	// leader outputs
	ownColor int32
	auxInt   int
	auxDon   core.DonateAux
	err      error
}

func (m *stageMachine) cliqueIdx() int32 {
	return m.rt.cliqueOf[m.rt.topo.cluster[m.id]]
}

func (m *stageMachine) Step(round int, inbox []network.Message) ([]network.Message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt := m.rt
	t := rt.topo
	k := m.cliqueIdx()
	for _, msg := range inbox {
		p, ok := msg.Payload.(stagePayload)
		if !ok {
			return nil, fmt.Errorf("distsim: machine %d got %T in stage run", m.id, msg.Payload)
		}
		switch p.phase {
		case stAnnDown:
			if m.haveColor {
				return nil, fmt.Errorf("distsim: machine %d double announce down", m.id)
			}
			m.color, m.haveColor = p.color, true
		case stAnnExch:
			if k < 0 {
				break // non-member clusters only listen to their own clique traffic
			}
			peerV := t.cluster[msg.From]
			if rt.cliqueOf[peerV] == k {
				idx := rt.memberIdx[peerV]
				m.annAdj[idx>>6] |= 1 << uint(idx&63)
			} else if c := p.color; c >= 1 {
				m.annExt[c>>6] |= 1 << uint(c&63)
			}
			if m.annExchPending--; m.annExchPending < 0 {
				return nil, fmt.Errorf("distsim: machine %d excess announce exchange", m.id)
			}
		case stAnnUp:
			orWords(m.annAdj, p.adj)
			orWords(m.annExt, p.ext)
			if m.annUpPending--; m.annUpPending < 0 {
				return nil, fmt.Errorf("distsim: machine %d excess announce up", m.id)
			}
		case stGossipDown:
			g := p.ground - 1
			if m.gotDown[g] {
				return nil, fmt.Errorf("distsim: machine %d double gossip down %d", m.id, p.ground)
			}
			m.gotDown[g] = true
			m.downRecs[g] = p.recs
		case stGossipExch:
			g := p.ground - 1
			m.mergeUp(g, p.recs)
			if m.exchPending[g]--; m.exchPending[g] < 0 {
				return nil, fmt.Errorf("distsim: machine %d excess gossip exchange %d", m.id, p.ground)
			}
		case stGossipUp:
			g := p.ground - 1
			m.mergeUp(g, p.recs)
			if m.upPending[g]--; m.upPending[g] < 0 {
				return nil, fmt.Errorf("distsim: machine %d excess gossip up %d", m.id, p.ground)
			}
		}
	}
	var out []network.Message
	// Announce: leaders seed their cluster's snapshot color; every machine
	// forwards it down its tree and over every inter-cluster link.
	if t.leader[m.id] && !m.haveColor {
		m.color, m.haveColor = rt.snapColors[t.cluster[m.id]], true
	}
	if m.haveColor && !m.sentAnn {
		m.sentAnn = true
		for _, c := range t.children[m.id] {
			out = append(out, network.Message{From: m.id, To: int(c), Bits: rt.colorBits,
				Payload: stagePayload{phase: stAnnDown, color: m.color}})
		}
		for _, ce := range t.cross[m.id] {
			out = append(out, network.Message{From: m.id, To: int(ce.peer), Bits: rt.colorBits,
				Payload: stagePayload{phase: stAnnExch, color: m.color}})
		}
	}
	if k < 0 {
		return out, nil // non-member clusters are done after announcing
	}
	// Member clusters convergecast the neighborhood report.
	if m.annExchPending == 0 && m.annUpPending == 0 && !m.sentAnnUp {
		m.sentAnnUp = true
		if t.leader[m.id] {
			m.buildOwnRecord(k)
		} else {
			bits := len(m.annAdj)*64 + len(m.annExt)*64
			out = append(out, network.Message{From: m.id, To: int(t.parent[m.id]), Bits: bits,
				Payload: stagePayload{phase: stAnnUp, adj: m.annAdj, ext: m.annExt}})
		}
	}
	// Gossip rounds: the leader floods its current record set; machines
	// forward it down, exchange it over same-clique links, and convergecast
	// the union of what they heard.
	for g := 0; g < gossipRounds; g++ {
		if t.leader[m.id] && m.records != nil && m.phaseG == g && (g == 0 || m.sentUp[g-1]) {
			// Launch gossip round g with the merged set — for g > 0 only
			// after round g−1's convergecast landed, so the flood carries
			// the records gathered so far, not just the leader's own.
			m.phaseG++
			m.gotDown[g] = true
			m.downRecs[g] = presentRecords(m.records)
		}
		if m.gotDown[g] && !m.sentDown[g] {
			m.sentDown[g] = true
			b := m.recsBits(k, m.downRecs[g])
			for _, c := range t.children[m.id] {
				out = append(out, network.Message{From: m.id, To: int(c), Bits: b,
					Payload: stagePayload{phase: stGossipDown, ground: g + 1, recs: m.downRecs[g]}})
			}
			for _, ce := range t.cross[m.id] {
				if rt.cliqueOf[ce.peerCluster] == k {
					out = append(out, network.Message{From: m.id, To: int(ce.peer), Bits: b,
						Payload: stagePayload{phase: stGossipExch, ground: g + 1, recs: m.downRecs[g]}})
				}
			}
		}
		if m.exchPending[g] == 0 && m.upPending[g] == 0 && !m.sentUp[g] && m.sentDown[g] {
			m.sentUp[g] = true
			if t.leader[m.id] {
				for _, rec := range m.upRecs[g] {
					m.mergeIntoRecords(rec)
				}
				if g == gossipRounds-1 {
					m.finish(k)
				}
			} else {
				b := m.recsBits(k, m.upRecs[g])
				out = append(out, network.Message{From: m.id, To: int(t.parent[m.id]), Bits: b,
					Payload: stagePayload{phase: stGossipUp, ground: g + 1, recs: m.upRecs[g]}})
			}
		}
	}
	return out, nil
}

// buildOwnRecord assembles the leader's member record from the announce
// convergecast and seeds the gossip phase.
func (m *stageMachine) buildOwnRecord(k int32) {
	rt := m.rt
	v := rt.topo.cluster[m.id]
	idx := rt.memberIdx[v]
	rec := memberRecord{
		idx:   idx,
		color: rt.snapColors[v],
		adj:   m.annAdj,
		ext:   m.annExt,
	}
	if idx == 0 {
		rec.seed = rt.seeds[k]
		rec.hasSeed = true
	}
	m.records = make([]memberRecord, len(rt.spec.members(int(k))))
	for i := range m.records {
		m.records[i].idx = -1
	}
	m.records[idx] = rec
}

func (m *stageMachine) mergeIntoRecords(rec memberRecord) {
	if m.records[rec.idx].idx < 0 {
		m.records[rec.idx] = rec
	}
}

func (m *stageMachine) recsBits(k int32, recs []memberRecord) int {
	b := 0
	for i := range recs {
		b += m.rt.recordBits(int(k), &recs[i])
	}
	return b
}

// finish verifies the record set is complete, builds the leader's view
// of its clique from it, checks that view against the H filler's, runs the
// stage's job on it, and extracts this leader's own outcome.
func (m *stageMachine) finish(k int32) {
	m.done = true
	rt := m.rt
	own := int(rt.memberIdx[rt.topo.cluster[m.id]])
	for i := range m.records {
		if m.records[i].idx < 0 {
			m.err = fmt.Errorf("distsim: clique %d member %d never heard member %d after %d gossip rounds (K-diameter > %d?)",
				k, own, i, gossipRounds, gossipRounds)
			return
		}
	}
	if !m.records[0].hasSeed || m.records[0].seed != rt.seeds[k] {
		m.err = fmt.Errorf("distsim: clique %d member %d lost the coordinator seed", k, own)
		return
	}
	var v coloring.CliqueView
	v.Reset(rt.n, int32(rt.delta+1), rt.spec.members(int(k)))
	for i, r := range m.records {
		if err := v.SetMember(i, r.color, r.adj, r.ext); err != nil {
			m.err = err
			return
		}
	}
	if err := v.Diff(rt.refs[k]); err != nil {
		m.err = fmt.Errorf("records disagree with the snapshot view: %w", err)
		return
	}
	rng := parwork.StreamRNG(m.records[0].seed)
	var err error
	switch rt.spec.Kind {
	case StageMatching:
		m.auxInt, err = core.MatchingJob(&v, rt.spec.Matching[k], rng)
	case StageSCT:
		m.auxInt, err = core.SCTJob(&v, rt.spec.SCT[k], rng)
	case StageDonate:
		m.auxDon, err = core.DonateJob(&v, rt.spec.Donate[k], rng)
	default:
		err = fmt.Errorf("distsim: unknown stage kind %v", rt.spec.Kind)
	}
	if err != nil {
		m.err = err
		return
	}
	m.ownColor = v.Colors[own]
}

// memberRecord is the per-member information gossiped through a clique: the
// member's snapshot color, its member-adjacency bitmap, the bitset of colors
// held by its non-member H-neighbors, and (on the coordinator, member 0) the
// stage seed. idx < 0 marks an empty slot in a leader's merged set.
type memberRecord struct {
	idx     int32
	color   int32
	adj     []uint64
	ext     []uint64
	seed    uint64
	hasSeed bool
}

func orWords(dst, src []uint64) {
	for i := range src {
		dst[i] |= src[i]
	}
}

// mergeUp unions src into the round's up-set, deduplicated by member idx
// through a presence slice (idempotent: a member's record is identical
// wherever it is heard from, so dropping duplicates loses nothing).
func (m *stageMachine) mergeUp(g int, src []memberRecord) {
	for _, r := range src {
		if !m.upSeen[g][r.idx] {
			m.upSeen[g][r.idx] = true
			m.upRecs[g] = append(m.upRecs[g], r)
		}
	}
}

func presentRecords(records []memberRecord) []memberRecord {
	out := make([]memberRecord, 0, len(records))
	for _, r := range records {
		if r.idx >= 0 {
			out = append(out, r)
		}
	}
	return out
}

// StageRoundBudget is the engine-step budget of a stage run: three H-rounds
// (announce plus two gossip rounds), each at most 2·dilation+1 deliveries,
// plus the initial compose step.
func StageRoundBudget(dilation int) int { return 3*(2*dilation+1) + 1 }

// RunStage executes a per-clique stage at machine granularity: every machine
// of cg.G is an engine machine, snap supplies the snapshot colors, and the
// spec's tasks run simultaneously on their vertex-disjoint cliques — the
// machine-level counterpart of the pipeline's parallel stage loops, driven
// by the same RowSeed-derived per-clique seeds. bandwidthBits caps per-link
// traffic per round (0 disables).
func RunStage(cg *cluster.CG, snap *coloring.Coloring, spec StageSpec, bandwidthBits int) (*StageOutcome, error) {
	nTasks := spec.tasks()
	if nTasks == 0 {
		return nil, fmt.Errorf("distsim: stage spec has no tasks")
	}
	if snap.N() != cg.H.N() {
		return nil, fmt.Errorf("distsim: snapshot has %d vertices, H has %d", snap.N(), cg.H.N())
	}
	rt := &stageRuntime{
		spec:       &spec,
		topo:       newMachineTopo(cg),
		snapColors: make([]int32, cg.H.N()),
		cliqueOf:   make([]int32, cg.H.N()),
		memberIdx:  make([]int32, cg.H.N()),
		seeds:      make([]uint64, nTasks),
		refs:       make([]*coloring.CliqueView, nTasks),
		n:          cg.H.N(),
		delta:      spec.Delta,
		colorBits:  bits.Len(uint(spec.Delta+1)) + 1,
		idxBits:    make([]int, nTasks),
		adjWords:   make([]int, nTasks),
		extWords:   (spec.Delta+1)/64 + 1,
	}
	for v := 0; v < cg.H.N(); v++ {
		rt.snapColors[v] = snap.Get(v)
		rt.cliqueOf[v] = -1
	}
	for i := 0; i < nTasks; i++ {
		members := spec.members(i)
		rt.seeds[i] = parwork.RowSeed(spec.BaseSeed, i)
		rt.idxBits[i] = bits.Len(uint(len(members))) + 1
		rt.adjWords[i] = len(members)/64 + 1
		for j, v := range members {
			if rt.cliqueOf[v] >= 0 {
				return nil, fmt.Errorf("distsim: vertex %d in cliques %d and %d", v, rt.cliqueOf[v], i)
			}
			rt.cliqueOf[v] = int32(i)
			rt.memberIdx[v] = int32(j)
		}
		ref, err := coloring.NewCliqueView(cg, snap, members)
		if err != nil {
			return nil, fmt.Errorf("distsim: clique %d: %w", i, err)
		}
		rt.refs[i] = ref
	}
	machines := make([]network.Machine, cg.G.N())
	ms := make([]*stageMachine, cg.G.N())
	for mID := 0; mID < cg.G.N(); mID++ {
		sm := &stageMachine{rt: rt, id: mID}
		if k := rt.cliqueOf[rt.topo.cluster[mID]]; k >= 0 {
			sm.annAdj = make([]uint64, rt.adjWords[k])
			sm.annExt = make([]uint64, rt.extWords)
			sm.annExchPending = len(rt.topo.cross[mID])
			sm.annUpPending = len(rt.topo.children[mID])
			for g := 0; g < gossipRounds; g++ {
				sm.upSeen[g] = make([]bool, len(spec.members(int(k))))
				for _, ce := range rt.topo.cross[mID] {
					if rt.cliqueOf[ce.peerCluster] == k {
						sm.exchPending[g]++
					}
				}
				sm.upPending[g] = len(rt.topo.children[mID])
			}
		}
		ms[mID] = sm
		machines[mID] = sm
	}
	eng, err := newEngine(cg.G, 1, machines, bandwidthBits)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	leaders := make([]*stageMachine, 0)
	for _, sm := range ms {
		if rt.topo.leader[sm.id] && sm.cliqueIdx() >= 0 {
			leaders = append(leaders, sm)
		}
	}
	allDone := func() bool {
		for _, sm := range leaders {
			sm.mu.Lock()
			d := sm.done
			sm.mu.Unlock()
			if !d {
				return false
			}
		}
		return true
	}
	if _, err := eng.Run(StageRoundBudget(cg.Dilation), allDone); err != nil {
		return nil, err
	}
	out := &StageOutcome{
		Writes: make([][]core.MemberWrite, nTasks),
		Stats:  eng.Stats(),
	}
	switch spec.Kind {
	case StageMatching:
		out.Repeats = make([]int, nTasks)
	case StageSCT:
		out.Colored = make([]int, nTasks)
	case StageDonate:
		out.DonateAux = make([]core.DonateAux, nTasks)
	}
	// Collect each leader's own outcome; all leaders of a clique must have
	// derived identical aux results.
	for i := 0; i < nTasks; i++ {
		members := spec.members(i)
		newColors := make([]int32, len(members))
		for j, v := range members {
			sm := ms[rt.topo.leaderOf[v]]
			sm.mu.Lock()
			err, ownColor := sm.err, sm.ownColor
			auxInt, auxDon := sm.auxInt, sm.auxDon
			sm.mu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("distsim: clique %d member %d: %w", i, j, err)
			}
			if j == 0 {
				switch spec.Kind {
				case StageMatching:
					out.Repeats[i] = auxInt
				case StageSCT:
					out.Colored[i] = auxInt
				case StageDonate:
					out.DonateAux[i] = auxDon
				}
			} else {
				diverged := false
				switch spec.Kind {
				case StageMatching:
					diverged = auxInt != out.Repeats[i]
				case StageSCT:
					diverged = auxInt != out.Colored[i]
				case StageDonate:
					diverged = auxDon != out.DonateAux[i]
				}
				if diverged {
					return nil, fmt.Errorf("distsim: clique %d member %d derived a diverging outcome", i, j)
				}
			}
			newColors[j] = ownColor
		}
		out.Writes[i] = core.MemberWrites(snap, members, newColors)
	}
	return out, nil
}
