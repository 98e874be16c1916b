// Package shard runs sketch waves on a partitioned graph: each shard slice
// owns a contiguous vertex range with its own arenas and worker-pool share,
// and rounds are stitched together by explicit boundary-exchange phases that
// ship sample and sketch rows to the shards whose halos reference them,
// routed by owner shard. Because the kernels' merges are commutative,
// associative, and idempotent (the internal/sketch semilattice laws), a
// per-shard fold over the local CSR — owned neighbors first, then halo
// neighbors — produces rows byte-identical to the unsharded fold over the
// global CSR, at every shard count and every parallelism.
//
// Cost accounting: the shards execute the same logical wave in lockstep, so
// the wave's round cost on the cluster-graph model is charged once,
// globally, exactly as the unsharded engine charges it — the per-link
// budgets of a partitioned run sum to the single-engine budgets. What is
// genuinely new in a partitioned run, the cross-shard row traffic, is
// tracked separately in ExchangeStats and surfaced by BENCH_shard.json.
package shard

import (
	"fmt"
	"time"

	"clustercolor/internal/cluster"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
	"clustercolor/internal/sketch"
)

// PhaseStats records one boundary-exchange phase.
type PhaseStats struct {
	// Phase labels the wave the exchange belongs to.
	Phase string
	// Rows is the number of sketch rows shipped across shard boundaries.
	Rows int64
	// Bits is the total deviation-encoded size of the shipped rows.
	Bits int64
	// Ns is the wall-clock cost of the phase — copy plus encoding-size
	// accounting — for the speedup-curve emitters. Timing feeds no
	// algorithmic decision; outputs are identical whatever the clock says.
	Ns int64
}

// ExchangeStats aggregates the cross-shard traffic of a partitioned run.
type ExchangeStats struct {
	// Phases lists every boundary-exchange phase in execution order.
	Phases []PhaseStats
	// Rows and Bits total the per-phase counts.
	Rows int64
	Bits int64
	// ExchangeNs totals the per-phase wall-clock cost.
	ExchangeNs int64
	// MaxPhaseBits is the largest single-phase exchange.
	MaxPhaseBits int64
	// PairBits sums bits per directed (from, to) shard pair.
	PairBits map[[2]int]int64
}

func (st *ExchangeStats) record(phase string, rows, bits, ns int64) {
	st.Phases = append(st.Phases, PhaseStats{Phase: phase, Rows: rows, Bits: bits, Ns: ns})
	st.Rows += rows
	st.Bits += bits
	st.ExchangeNs += ns
	if bits > st.MaxPhaseBits {
		st.MaxPhaseBits = bits
	}
}

// Engine runs sketch waves over a sharded graph: one sample and one output
// arena per slice (owned rows followed by halo rows, mirroring the local
// CSR), one worker-pool share per slice under the process parallelism
// budget, and the exchange bookkeeping.
type Engine[C sketch.Cell] struct {
	SG     *graph.ShardedGraph
	Kernel sketch.Kernel[C]
	Stats  ExchangeStats

	states []shardState[C]
	pools  []*parwork.ShardPool
	trials int
}

type shardState[C sketch.Cell] struct {
	samples sketch.Arena[C]
	out     sketch.Arena[C]
}

// NewEngine returns an engine for the sharded graph running kernel k. The
// decomposition's waves all run the narrow max kernel, so the constructor is
// typed to int8 cells — existing call sites stay source-compatible, and a
// wider kernel would take an explicit Engine literal anyway (Go cannot infer
// the cell width from a concrete kernel value).
func NewEngine(sg *graph.ShardedGraph, k sketch.Kernel[int8]) *Engine[int8] {
	e := &Engine[int8]{
		SG:     sg,
		Kernel: k,
		states: make([]shardState[int8], sg.NumShards()),
		pools:  parwork.SplitPools(sg.NumShards()),
	}
	e.Stats.PairBits = make(map[[2]int]int64)
	return e
}

// FillSamples regenerates every shard's sample rows for a wave: owned rows
// fill locally from the global per-vertex counter streams (row v is
// Kernel.Fill(row, RowSeed(seed, v)) — a pure function of the global id, so
// shard boundaries cannot shift the bytes), then one boundary-exchange
// phase ships the rows of boundary vertices into the halos that reference
// them.
func (e *Engine[C]) FillSamples(t int, seed uint64, phase string) error {
	e.trials = t
	k := e.SG.NumShards()
	if _, err := parwork.ForEach(k, func(s int) (struct{}, error) {
		sl := e.SG.Slices[s]
		st := &e.states[s]
		st.samples.Reset(sl.CSR.N(), t)
		st.out.Reset(sl.CSR.N(), t)
		return struct{}{}, e.pools[s].ForRange(sl.Own(), func(lo, hi int) error {
			for lv := lo; lv < hi; lv++ {
				e.Kernel.Fill(st.samples.Row(lv), parwork.RowSeed(seed, sl.Lo+lv))
			}
			return nil
		})
	}); err != nil {
		return err
	}
	return e.exchange(phase+"/samples", func(s int) *sketch.Arena[C] { return &e.states[s].samples })
}

// CollectOptions mirrors sketch.CollectOptions on the partition. Pred
// filters by the global endpoints. Predicates memoized per edge (the acd
// buddy bitmap) use LocalPred instead, which takes precedence over Pred and
// receives the shard, the local endpoint ids, and the local directed slot of
// the owned row being folded.
type CollectOptions struct {
	IncludeSelf bool
	Pred        func(v, u int) bool
	LocalPred   func(s, lv, lu, lslot int) bool
}

// Collect runs one aggregation wave: every shard folds its owned rows over
// its local CSR on its own pool share (halo sample rows were provided by
// FillSamples' exchange), the wave is charged once globally — one H-round
// plus the payload round at the global maximum encoded row, exactly the
// unsharded Collect charge — and a boundary-exchange phase then ships the
// collected rows of boundary vertices into neighboring halos for the
// estimate and predicate passes that follow. Returns the charged payload
// bits.
func (e *Engine[C]) Collect(cg *cluster.CG, phase string, opts CollectOptions) (int, error) {
	k := e.SG.NumShards()
	cg.ChargeHRounds(phase, 1, 0) // payload charged below with true size
	shardBits := make([]int, k)
	if _, err := parwork.ForEach(k, func(s int) (struct{}, error) {
		sl := e.SG.Slices[s]
		st := &e.states[s]
		var localOpts sketch.CollectOptions
		localOpts.IncludeSelf = opts.IncludeSelf
		switch {
		case opts.LocalPred != nil:
			pred := opts.LocalPred
			localOpts.Pred = func(lv, lu, lslot int) bool {
				return pred(s, lv, lu, lslot)
			}
		case opts.Pred != nil:
			pred := opts.Pred
			localOpts.Pred = func(lv, lu, lslot int) bool {
				return pred(sl.Lo+lv, sl.ToGlobal(lu))
			}
		}
		bits, err := sketch.CollectRows(sl.CSR, e.Kernel, &st.samples, &st.out, localOpts, sl.Own(), e.pools[s])
		if err != nil {
			return struct{}{}, err
		}
		shardBits[s] = bits
		return struct{}{}, nil
	}); err != nil {
		return 0, err
	}
	// The global payload maximum equals the unsharded maximum: every owned
	// row is encoded by exactly one shard and the rows are byte-identical.
	maxBits := 1
	for _, b := range shardBits {
		if b > maxBits {
			maxBits = b
		}
	}
	cg.ChargeHRounds(phase+"/payload", 1, maxBits)
	if err := e.exchange(phase+"/out", func(s int) *sketch.Arena[C] { return &e.states[s].out }); err != nil {
		return 0, err
	}
	return maxBits, nil
}

// Row returns the collected sketch row of global vertex v from its owner
// shard. Valid until the next Collect or FillSamples.
func (e *Engine[C]) Row(v int) []C {
	s := e.SG.Owner(v)
	return e.states[s].out.Row(v - e.SG.Slices[s].Lo)
}

// OutRowLocal returns the out row of a local id within shard s — owned or
// halo — for shard-local passes.
func (e *Engine[C]) OutRowLocal(s, local int) []C { return e.states[s].out.Row(local) }

// Pool returns shard s's worker-pool share.
func (e *Engine[C]) Pool(s int) *parwork.ShardPool { return e.pools[s] }

// exchange is the boundary-exchange phase: for every shard, every halo row
// is copied from its owner's arena (routing by owner shard), and the shipped
// traffic — rows and deviation-encoded bits, the same encoding the network
// payload charges use — is recorded per phase and per shard pair. Shards
// fill their own halos in parallel; the ForEach barrier orders the phase
// after every owner's rows are final.
func (e *Engine[C]) exchange(phase string, arena func(s int) *sketch.Arena[C]) error {
	start := time.Now()
	k := e.SG.NumShards()
	type pairKey = [2]int
	rows := make([]int64, k)
	bitsTotal := make([]int64, k)
	pair := make([]map[pairKey]int64, k)
	if _, err := parwork.ForEach(k, func(s int) (struct{}, error) {
		sl := e.SG.Slices[s]
		dst := arena(s)
		own := sl.Own()
		pp := make(map[pairKey]int64)
		for i, u32 := range sl.Halo {
			o := int(sl.HaloOwner[i])
			src := arena(o).Row(int(u32) - e.SG.Slices[o].Lo)
			copy(dst.Row(own+i), src)
			b := int64(e.Kernel.EncodedBits(src))
			rows[s]++
			bitsTotal[s] += b
			pp[pairKey{o, s}] += b
		}
		pair[s] = pp
		return struct{}{}, nil
	}); err != nil {
		return err
	}
	var totalRows, totalBits int64
	for s := 0; s < k; s++ {
		totalRows += rows[s]
		totalBits += bitsTotal[s]
		for pk, b := range pair[s] {
			e.Stats.PairBits[pk] += b
		}
	}
	e.Stats.record(phase, totalRows, totalBits, int64(time.Since(start)))
	return nil
}

// Trials returns the sample width of the current wave.
func (e *Engine[C]) Trials() int { return e.trials }

// ResetStats clears the exchange bookkeeping between runs.
func (e *Engine[C]) ResetStats() {
	e.Stats = ExchangeStats{PairBits: make(map[[2]int]int64)}
}

// Validate sanity-checks that the engine and graph agree on shard count.
func (e *Engine[C]) Validate() error {
	if len(e.states) != e.SG.NumShards() {
		return fmt.Errorf("shard: %d states for %d shards", len(e.states), e.SG.NumShards())
	}
	return nil
}
