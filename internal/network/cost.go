package network

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// CostModel accounts rounds and bandwidth for cluster-level primitives.
//
// The paper expresses algorithms as sequences of O(log n)-bit broadcast and
// aggregation operations on cluster support trees, each costing O(d) rounds
// on G (Section 3.2). The cluster layer reports every primitive here with
// its payload size and hop count; payloads exceeding the link bandwidth are
// pipelined over ⌈bits/bandwidth⌉ consecutive rounds, exactly the
// multiplicative overhead the model prescribes.
//
// A CostModel is safe for concurrent use; cluster primitives executing in
// parallel over vertex-disjoint subgraphs charge concurrently and the model
// records the maximum (not the sum) of their round costs via Parallel.
type CostModel struct {
	mu sync.Mutex
	// LinkBandwidth is the per-link per-round bit budget (B = Θ(log n)).
	linkBandwidth int
	// multiplier scales every charged round count; virtual graphs
	// (Appendix A) set it to the edge congestion c.
	multiplier int
	rounds     int64
	totalBits  int64
	maxPayload int
	phases     map[string]int64
}

// DefaultBandwidth returns the model's Θ(log n) per-link budget for a
// network of n machines: 2·⌈log₂(n+1)⌉ + 16 bits, with n below 2 counted
// as 2.
func DefaultBandwidth(n int) int {
	if n < 2 {
		n = 2
	}
	return 2*bits.Len(uint(n)) + 16
}

// NewCostModel returns a cost model with the given per-link bandwidth in
// bits. bandwidthBits must be positive.
func NewCostModel(bandwidthBits int) (*CostModel, error) {
	if bandwidthBits <= 0 {
		return nil, fmt.Errorf("network: bandwidth %d must be positive", bandwidthBits)
	}
	return &CostModel{
		linkBandwidth: bandwidthBits,
		phases:        make(map[string]int64),
	}, nil
}

// Bandwidth returns the per-link bit budget.
func (c *CostModel) Bandwidth() int {
	return c.linkBandwidth
}

// SetMultiplier scales all subsequently charged rounds by k ≥ 1. Virtual
// graphs (Appendix A) run every primitive with an overhead factor equal to
// the edge congestion of their support trees; the multiplier implements
// exactly that factor.
func (c *CostModel) SetMultiplier(k int) error {
	if k < 1 {
		return fmt.Errorf("network: multiplier %d must be >= 1", k)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.multiplier = k
	return nil
}

func (c *CostModel) factor() int {
	if c.multiplier < 1 {
		return 1
	}
	return c.multiplier
}

// Charge records a primitive in the given phase that moves payloadBits over
// hops sequential hops. It returns the number of rounds charged.
func (c *CostModel) Charge(phase string, payloadBits, hops int) int {
	if hops <= 0 {
		hops = 1
	}
	if payloadBits < 0 {
		payloadBits = 0
	}
	slots := (payloadBits + c.linkBandwidth - 1) / c.linkBandwidth
	if slots < 1 {
		slots = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rounds := hops * slots * c.factor()
	c.rounds += int64(rounds)
	c.totalBits += int64(payloadBits)
	if payloadBits > c.maxPayload {
		c.maxPayload = payloadBits
	}
	c.phases[phase] += int64(rounds)
	return rounds
}

// Parallel records a set of primitives that execute concurrently on
// vertex-disjoint subgraphs: the round cost is the maximum of the individual
// costs, while bits accumulate. Each entry is (payloadBits, hops).
func (c *CostModel) Parallel(phase string, entries [][2]int) int {
	maxRounds := 0
	var bits int64
	maxPayload := 0
	for _, e := range entries {
		payload, hops := e[0], e[1]
		if hops <= 0 {
			hops = 1
		}
		if payload < 0 {
			payload = 0
		}
		slots := (payload + c.linkBandwidth - 1) / c.linkBandwidth
		if slots < 1 {
			slots = 1
		}
		if r := hops * slots; r > maxRounds {
			maxRounds = r
		}
		bits += int64(payload)
		if payload > maxPayload {
			maxPayload = payload
		}
	}
	if maxRounds == 0 {
		maxRounds = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	maxRounds *= c.factor()
	c.rounds += int64(maxRounds)
	c.totalBits += bits
	if maxPayload > c.maxPayload {
		c.maxPayload = maxPayload
	}
	c.phases[phase] += int64(maxRounds)
	return maxRounds
}

// AbsorbParallel merges sub-models whose primitives executed concurrently on
// vertex-disjoint subgraphs (e.g. per-clique stages): the round cost is the
// maximum over the sub-models, bits accumulate, and the merged rounds are
// attributed to the given phase.
func (c *CostModel) AbsorbParallel(phase string, subs []*CostModel) {
	var maxRounds, bitsSum int64
	maxPayload := 0
	for _, s := range subs {
		if s == nil {
			continue
		}
		s.mu.Lock()
		if s.rounds > maxRounds {
			maxRounds = s.rounds
		}
		bitsSum += s.totalBits
		if s.maxPayload > maxPayload {
			maxPayload = s.maxPayload
		}
		s.mu.Unlock()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rounds += maxRounds
	c.totalBits += bitsSum
	if maxPayload > c.maxPayload {
		c.maxPayload = maxPayload
	}
	c.phases[phase] += maxRounds
}

// Rounds returns the total rounds charged so far.
func (c *CostModel) Rounds() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds
}

// TotalBits returns the total payload bits charged so far.
func (c *CostModel) TotalBits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalBits
}

// MaxPayload returns the largest single payload charged, in bits. A value
// at most the bandwidth certifies that no primitive needed pipelining.
func (c *CostModel) MaxPayload() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxPayload
}

// PhaseRounds returns a copy of the per-phase round totals.
func (c *CostModel) PhaseRounds() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.phases))
	for k, v := range c.phases {
		out[k] = v
	}
	return out
}

// Summary renders a deterministic one-line-per-phase report.
func (c *CostModel) Summary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.phases))
	for k := range c.phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "rounds=%d totalBits=%d maxPayload=%d\n", c.rounds, c.totalBits, c.maxPayload)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-28s %d\n", k, c.phases[k])
	}
	return sb.String()
}
