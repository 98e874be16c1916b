package distsim

import (
	"fmt"
	"sync"

	"clustercolor/internal/cluster"
	"clustercolor/internal/network"
)

// This file executes the paper's canonical H-round — leader broadcast down
// the support trees, inter-cluster exchange, convergecast back to the
// leaders — at machine granularity, as real messages on network.Engine. It
// is the machine-level counterpart of cluster.CG.LeaderRound and must
// produce identical per-leader aggregates within the rounds that primitive
// charges.

type leaderPayload struct {
	phase int // phaseDown | phaseExchange | phaseUp
	value uint64
}

// leaderMachine is one machine running the leader-round protocol. combine
// must be commutative, associative, and idempotent (Section 1.1's
// aggregation-safety condition: redundant inter-cluster links deliver the
// same value twice).
type leaderMachine struct {
	t       *machineTopo
	id      int
	bits    int
	own     uint64 // leader's value (leaders only)
	combine func(a, b uint64) uint64

	mu              sync.Mutex
	down            uint64
	haveDown        bool
	acc             uint64
	sentDown        bool
	exchanged       bool
	sentUp          bool
	pendingUp       int
	pendingExchange int
	result          uint64
	done            bool
}

func (m *leaderMachine) Step(round int, inbox []network.Message) ([]network.Message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []network.Message
	for _, msg := range inbox {
		p, ok := msg.Payload.(leaderPayload)
		if !ok {
			return nil, fmt.Errorf("distsim: machine %d got %T in leader round", m.id, msg.Payload)
		}
		switch p.phase {
		case phaseDown:
			if m.haveDown {
				return nil, fmt.Errorf("distsim: machine %d double down", m.id)
			}
			m.down, m.haveDown = p.value, true
		case phaseExchange:
			m.acc = m.combine(m.acc, p.value)
			if m.pendingExchange--; m.pendingExchange < 0 {
				return nil, fmt.Errorf("distsim: machine %d excess exchange", m.id)
			}
		case phaseUp:
			m.acc = m.combine(m.acc, p.value)
			if m.pendingUp--; m.pendingUp < 0 {
				return nil, fmt.Errorf("distsim: machine %d excess up", m.id)
			}
		}
	}
	if m.t.leader[m.id] && !m.haveDown {
		m.down, m.haveDown = m.own, true
	}
	if m.haveDown && !m.sentDown {
		m.sentDown = true
		for _, c := range m.t.children[m.id] {
			out = append(out, network.Message{From: m.id, To: int(c), Bits: m.bits,
				Payload: leaderPayload{phase: phaseDown, value: m.down}})
		}
	}
	if m.haveDown && !m.exchanged {
		m.exchanged = true
		for _, ce := range m.t.cross[m.id] {
			out = append(out, network.Message{From: m.id, To: int(ce.peer), Bits: m.bits,
				Payload: leaderPayload{phase: phaseExchange, value: m.down}})
		}
	}
	if m.exchanged && m.pendingUp == 0 && m.pendingExchange == 0 && !m.sentUp {
		m.sentUp = true
		if m.t.leader[m.id] {
			m.result = m.acc
			m.done = true
		} else {
			out = append(out, network.Message{From: m.id, To: int(m.t.parent[m.id]), Bits: m.bits,
				Payload: leaderPayload{phase: phaseUp, value: m.acc}})
		}
	}
	return out, nil
}

// LeaderRoundBudget is the step budget of the protocol: one full H-round,
// 2·(dilation+1) engine steps (the wave bound with a single wavefront).
func LeaderRoundBudget(dilation int) int { return 2 * (dilation + 1) }

// LeaderRound executes one machine-level H-round: each cluster's leader
// value floods down its support tree, boundary machines exchange it over
// inter-cluster links, and the combine of the values heard from adjacent
// clusters aggregates back to each leader. payloadBits is the declared
// per-message size; bandwidthBits caps per-link traffic per round (0
// disables). combine must be commutative, associative, and idempotent.
func LeaderRound(cg *cluster.CG, payloadBits, bandwidthBits int,
	leaderValue func(v int) uint64, identity uint64, combine func(a, b uint64) uint64) ([]uint64, network.LinkStats, error) {
	t := newMachineTopo(cg)
	machines := make([]network.Machine, cg.G.N())
	ms := make([]*leaderMachine, cg.G.N())
	for m := 0; m < cg.G.N(); m++ {
		lm := &leaderMachine{t: t, id: m, bits: payloadBits, acc: identity, combine: combine}
		if t.leader[m] {
			lm.own = leaderValue(int(t.cluster[m]))
		}
		lm.pendingUp = len(t.children[m])
		lm.pendingExchange = len(t.cross[m])
		ms[m] = lm
		machines[m] = lm
	}
	eng, err := newEngine(cg.G, 1, machines, bandwidthBits)
	if err != nil {
		return nil, network.LinkStats{}, err
	}
	defer eng.Close()
	done := func() bool {
		for _, lm := range ms {
			if lm.t.leader[lm.id] {
				lm.mu.Lock()
				d := lm.done
				lm.mu.Unlock()
				if !d {
					return false
				}
			}
		}
		return true
	}
	if _, err := eng.Run(LeaderRoundBudget(cg.Dilation), done); err != nil {
		return nil, eng.Stats(), err
	}
	out := make([]uint64, cg.H.N())
	for v := 0; v < cg.H.N(); v++ {
		lm := ms[t.leaderOf[v]]
		lm.mu.Lock()
		out[v] = lm.result
		lm.mu.Unlock()
	}
	return out, eng.Stats(), nil
}
