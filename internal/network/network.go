// Package network provides the synchronous message-passing substrate of the
// paper's model (Section 3.2): an n-machine communication network G whose
// links carry O(log n)-bit messages per round.
//
// Two components live here:
//
//   - Engine: a synchronous round executor over a partitioned communication
//     graph. Machines implement the Machine interface; each round every
//     machine receives the messages sent to it in the previous round and
//     emits new ones. The engine validates every message against the local
//     CSR of its sender's slice, enforces the per-link bandwidth cap, and
//     counts the traffic that crosses a slice boundary. An unsharded run is
//     the one-slice partition, which aliases the graph's CSR. Machines are
//     stepped by a persistent pool of ~GOMAXPROCS workers signaled twice per
//     round.
//
//   - CostModel: the round/bandwidth accountant used by the cluster-level
//     algorithm code. Cluster primitives (broadcast, aggregate, neighbor
//     exchange) declare their payload size and hop count; the cost model
//     converts that into rounds on G — pipelining payloads larger than the
//     link bandwidth over multiple rounds — and tracks per-phase totals so
//     experiments can report where rounds are spent.
package network

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"clustercolor/internal/graph"
)

// Message is a single link message. Bits is the declared size used for
// bandwidth accounting; Payload is the simulated content.
type Message struct {
	From    int
	To      int
	Bits    int
	Payload any
}

// Machine is the per-node behaviour driven by the Engine. Step is called
// once per round with the messages delivered this round, sorted by sender
// (messages from one sender keep their emission order), and returns the
// messages to send (delivered next round). Machine ids are global vertex ids
// at every slice count. Step implementations run concurrently across
// machines and must not share mutable state. The inbox slice is owned by the
// engine and reused across rounds: implementations must not retain it (or
// its backing array) after Step returns.
type Machine interface {
	Step(round int, inbox []Message) (outbox []Message, err error)
}

// Engine executes synchronous rounds over a partitioned communication graph.
// The zero-value Engine is not usable; construct with NewEngine. An Engine is
// not safe for concurrent Step calls.
//
// Workers own contiguous ranges of global machine ids, so a worker may step
// machines of several slices; each message is checked against the slice that
// owns its sender, whose local CSR holds every edge incident to an owned
// vertex, so the topology check matches the global graph without needing
// it. Link totals are kept under global undirected keys: both directions of
// a link, across a slice boundary or not, merge onto one key, and the cap
// applies to that sum. Statistics are therefore identical at every slice
// count.
//
// Worker goroutines stay parked between rounds. They are released by Close;
// engines that are dropped without Close are cleaned up by a finalizer, so
// Close is an optimization for tight loops that build many engines, not a
// correctness requirement.
type Engine struct {
	*engineState
}

// engineState carries all engine data. It is split from Engine so that
// worker goroutines reference only the inner state: the finalizer on the
// outer handle can then fire once the caller drops the engine, even while
// workers are parked on their command channels.
type engineState struct {
	sg        *graph.ShardedGraph
	machines  []Machine
	bandwidth int // bits per link per round, 0 = unlimited
	round     int
	stats     LinkStats
	// exRows/exBits count the messages (and their declared bits) whose
	// recipient is owned by another slice than their sender.
	exRows, exBits int64

	// Allocated once on first Step and reused every round.
	inboxes  [][]Message // current-round inbox per machine
	next     [][]Message // next-round inbox per machine, filled on delivery
	workerOf []int32     // machine -> index of the worker stepping it
	stepErrs []error     // per-machine Step error for the current round
	valErrs  []error     // per-machine message-validation error
	linkBits map[[2]int32]int
	workers  []*engineWorker
	wg       sync.WaitGroup
	stop     chan struct{}
	started  bool
	closed   atomic.Bool
	closing  sync.Once
}

// engineWorker steps the machines [lo, hi) and accumulates bandwidth stats
// locally so the hot path is contention-free; the engine merges the
// per-worker accumulators between phases.
type engineWorker struct {
	idx            int
	lo, hi         int
	slice          int // slice owning machine lo
	cmd            chan int
	linkBits       map[[2]int32]int
	totalBits      int64
	messages       int64
	exRows, exBits int64
	// routes[t] collects this worker's outgoing messages destined for
	// worker t, in emission order, so the delivery phase only touches
	// messages addressed to it instead of rescanning every outbox.
	routes [][]Message
}

// Worker commands.
const (
	opCompute = iota + 1
	opDeliver
)

// LinkStats aggregates bandwidth usage observed by an Engine run. On
// successful rounds the totals are identical at every slice count; after a
// failed Step (machine error, invalid message, bandwidth violation) the
// partially-accumulated values are unspecified — a faulted engine is only
// good for inspection, not resumption.
type LinkStats struct {
	// Rounds is the number of executed rounds.
	Rounds int
	// TotalBits is the sum of all message sizes.
	TotalBits int64
	// MaxLinkBits is the largest number of bits carried by a single link
	// in a single round.
	MaxLinkBits int
	// Messages is the total number of messages delivered.
	Messages int64
}

// NewEngine returns an engine over the partitioned graph sg; for an
// unsharded run pass graph.NewShardedGraph(g, 1). machines are indexed by
// global vertex id and must have length sg.N(). bandwidthBits caps the bits
// a link may carry per round (0 disables the check). The global graph is not
// consulted, so streamed sharded graphs work unchanged.
func NewEngine(sg *graph.ShardedGraph, machines []Machine, bandwidthBits int) (*Engine, error) {
	if len(machines) != sg.N() {
		return nil, fmt.Errorf("network: %d machines for %d vertices", len(machines), sg.N())
	}
	eng := &Engine{&engineState{
		sg:        sg,
		machines:  machines,
		bandwidth: bandwidthBits,
		stop:      make(chan struct{}),
	}}
	runtime.SetFinalizer(eng, (*Engine).Close)
	return eng, nil
}

// Stats returns bandwidth statistics for the run so far.
func (e *Engine) Stats() LinkStats { return e.stats }

// Exchanged returns the cross-slice traffic so far: the messages whose
// recipient is owned by another slice than their sender, and their total
// declared bits. Both are a subset of Stats' totals, not an addition to
// them, and both are zero on the one-slice partition.
func (e *Engine) Exchanged() (rows, bits int64) { return e.exRows, e.exBits }

// Close parks no further work on the pool and releases its goroutines. It
// is idempotent and safe on engines whose pool never started; Step on a
// closed engine returns an error. Close must not be called concurrently
// with Step.
func (e *Engine) Close() {
	e.closing.Do(func() {
		e.closed.Store(true)
		close(e.stop)
	})
}

// Step executes one synchronous round: every machine consumes its inbox and
// produces an outbox; messages are validated against the topology and the
// bandwidth cap, then queued for the next round. The first error is
// deterministic: a machine error of the lowest machine, else the first
// invalid message of the lowest machine that sent one, else the
// lowest-numbered link over the cap.
func (e *Engine) Step() error {
	// The handle must survive the whole round: if the caller drops it
	// mid-call, the finalizer would Close the pool under a live dispatch.
	defer runtime.KeepAlive(e)
	if e.closed.Load() {
		return fmt.Errorf("network: Step on closed engine")
	}
	s := e.engineState
	s.startPool()
	s.dispatch(opCompute)
	for i, err := range s.stepErrs {
		if err != nil {
			return fmt.Errorf("network: machine %d round %d: %w", i, s.round, err)
		}
	}
	for _, err := range s.valErrs {
		if err != nil {
			return err
		}
	}
	// Sums are order-independent, and per-link totals are summed before
	// taking the max, so the stats equal a single pass over all messages.
	clear(s.linkBits)
	for _, w := range s.workers {
		s.stats.TotalBits += w.totalBits
		s.stats.Messages += w.messages
		s.exRows += w.exRows
		s.exBits += w.exBits
		for key, bits := range w.linkBits {
			s.linkBits[key] += bits
		}
	}
	roundMax, err := checkLinkCap(s.linkBits, s.bandwidth, s.round)
	if err != nil {
		return err
	}
	s.stats.MaxLinkBits = max(s.stats.MaxLinkBits, roundMax)
	s.dispatch(opDeliver)
	// The just-consumed inboxes become the scratch buffers for the next
	// round's delivery; machines must not have retained them.
	s.inboxes, s.next = s.next, s.inboxes
	s.round++
	s.stats.Rounds = s.round
	return nil
}

// Run executes rounds until done returns true or maxRounds is reached. It
// returns the number of rounds executed and an error if the engine faulted
// or the round budget was exhausted.
func (e *Engine) Run(maxRounds int, done func() bool) (int, error) {
	start := e.round
	for e.round-start < maxRounds {
		if done() {
			return e.round - start, nil
		}
		if err := e.Step(); err != nil {
			return e.round - start, err
		}
	}
	if done() {
		return e.round - start, nil
	}
	return e.round - start, fmt.Errorf("network: budget of %d rounds exhausted", maxRounds)
}

// startPool lazily allocates the reusable buffers and parks one worker per
// CPU (capped at one per machine). Workers loop on their command channel
// until the engine is closed.
func (s *engineState) startPool() {
	if s.started {
		return
	}
	s.started = true
	n := len(s.machines)
	s.inboxes = make([][]Message, n)
	s.next = make([][]Message, n)
	s.stepErrs = make([]error, n)
	s.valErrs = make([]error, n)
	s.linkBits = make(map[[2]int32]int)
	nw := min(runtime.GOMAXPROCS(0), n)
	s.workerOf = make([]int32, n)
	s.workers = make([]*engineWorker, 0, nw)
	for i := 0; i < nw; i++ {
		w := &engineWorker{
			idx:      i,
			lo:       i * n / nw,
			hi:       (i + 1) * n / nw,
			cmd:      make(chan int),
			linkBits: make(map[[2]int32]int),
			routes:   make([][]Message, nw),
		}
		w.slice = s.sg.Owner(w.lo)
		for m := w.lo; m < w.hi; m++ {
			s.workerOf[m] = int32(i)
		}
		s.workers = append(s.workers, w)
		go s.workerLoop(w)
	}
}

func (s *engineState) workerLoop(w *engineWorker) {
	for {
		select {
		case <-s.stop:
			return
		case op := <-w.cmd:
			switch op {
			case opCompute:
				s.computeShard(w)
			case opDeliver:
				s.deliverShard(w)
			}
			s.wg.Done()
		}
	}
}

// dispatch signals every worker with op and waits for all of them; the
// WaitGroup forms a full barrier between the compute and deliver phases.
func (s *engineState) dispatch(op int) {
	if len(s.workers) == 0 {
		return
	}
	s.wg.Add(len(s.workers))
	for _, w := range s.workers {
		w.cmd <- op
	}
	s.wg.Wait()
}

// computeShard steps the worker's machines, validates their outboxes, and
// accumulates link bits into the worker-local map. Only indices in [lo, hi)
// are written, so workers never contend.
func (s *engineState) computeShard(w *engineWorker) {
	clear(w.linkBits)
	w.totalBits, w.messages, w.exRows, w.exBits = 0, 0, 0, 0
	for t := range w.routes {
		w.routes[t] = w.routes[t][:0]
	}
	si := w.slice
	for i := w.lo; i < w.hi; i++ {
		for i >= s.sg.Slices[si].Hi {
			si++
		}
		sl := s.sg.Slices[si]
		s.stepErrs[i], s.valErrs[i] = nil, nil
		out, err := s.machines[i].Step(s.round, s.inboxes[i])
		if err != nil {
			s.stepErrs[i] = err
			continue
		}
		for _, msg := range out {
			if msg.From != i {
				s.valErrs[i] = fmt.Errorf("network: machine %d forged sender %d", i, msg.From)
				break
			}
			// LocalOf maps only owned and halo vertices, so it also
			// rejects every recipient outside [0, n).
			to, ok := sl.LocalOf(msg.To)
			if !ok || !sl.CSR.HasEdge(i-sl.Lo, to) {
				s.valErrs[i] = fmt.Errorf("network: message %d->%d without link", msg.From, msg.To)
				break
			}
			w.linkBits[linkKey(i, msg.To)] += msg.Bits
			w.totalBits += int64(msg.Bits)
			w.messages++
			if to >= sl.Own() {
				w.exRows++
				w.exBits += int64(msg.Bits)
			}
			t := s.workerOf[msg.To]
			w.routes[t] = append(w.routes[t], msg)
		}
	}
}

// deliverShard fills the next-round inboxes of the worker's machines with
// the messages routed to it. Producer workers are drained in index order,
// each stepped an ascending machine range and emitted in machine order, so
// every inbox arrives sorted by sender, with one sender's messages in
// emission order, and needs no sort.
func (s *engineState) deliverShard(w *engineWorker) {
	for to := w.lo; to < w.hi; to++ {
		s.next[to] = s.next[to][:0]
	}
	for _, src := range s.workers {
		for _, msg := range src.routes[w.idx] {
			s.next[msg.To] = append(s.next[msg.To], msg)
		}
	}
}

// checkLinkCap scans a round's per-link totals, returning the round maximum
// and an error for the lowest-numbered link over the cap (deterministic
// regardless of map iteration order). bandwidth 0 disables the cap.
func checkLinkCap(linkBits map[[2]int32]int, bandwidth, round int) (int, error) {
	overKey, overBits := [2]int32{}, -1
	roundMax := 0
	for key, bits := range linkBits {
		if bits > roundMax {
			roundMax = bits
		}
		if bandwidth > 0 && bits > bandwidth {
			if overBits < 0 || key[0] < overKey[0] || (key[0] == overKey[0] && key[1] < overKey[1]) {
				overKey, overBits = key, bits
			}
		}
	}
	if overBits >= 0 {
		return roundMax, fmt.Errorf("network: link {%d,%d} carried %d bits > bandwidth %d in round %d",
			overKey[0], overKey[1], overBits, bandwidth, round)
	}
	return roundMax, nil
}

func linkKey(u, v int) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{int32(u), int32(v)}
}
