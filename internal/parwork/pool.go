package parwork

import (
	"sync"
	"sync/atomic"
)

// ShardPool is a worker budget carved out of the process-wide parallelism
// knob for one shard of a partitioned run. Pools exist so k shards can
// execute concurrently without multiplying the goroutine count: SplitPools
// divides Parallelism() across the shards, and each shard's inner loops fan
// out only across its own share. Chunking inside a pool uses
// RangeChunksAt(n, Workers()) — a pure function of n and the pool's own
// budget — and every chunk-level reduction is partition-independent, so
// outputs are byte-identical whatever the budget split.
//
// Pools from one SplitPools call additionally share a token budget capping
// their total concurrently executing workers at the Parallelism() recorded
// at split time: with k > Parallelism() every pool still gets a worker (so
// no shard starves), but the floored shares can no longer multiply — k
// shards driven concurrently run at most max(Parallelism(), 1) workers
// in flight. Loops inside one pool's worker must not invoke a sibling pool
// of the same split (a worker holds its token for the duration of its
// drain), which no current caller does: shard engines use their own pool's
// loops only.
type ShardPool struct {
	workers int
	tokens  chan struct{} // shared across one SplitPools group; nil = ungated
}

// Workers returns the pool's goroutine budget (≥ 1).
func (p *ShardPool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// SplitPools divides the current Parallelism() budget near-evenly across k
// pools, every pool getting at least one worker. Earlier pools receive the
// remainder, so budgets differ by at most one. The pools share a token
// budget of max(Parallelism(), 1) concurrent workers, so the per-pool
// 1-worker floor cannot oversubscribe the process budget when k exceeds it.
func SplitPools(k int) []*ShardPool {
	if k < 1 {
		k = 1
	}
	p := Parallelism()
	if p < 1 {
		p = 1
	}
	tokens := make(chan struct{}, p)
	pools := make([]*ShardPool, k)
	for i := range pools {
		w := p / k
		if i < p%k {
			w++
		}
		if w < 1 {
			w = 1
		}
		pools[i] = &ShardPool{workers: w, tokens: tokens}
	}
	return pools
}

// acquire blocks until a worker token is free and returns its release.
// Ungated pools (nil, or constructed outside SplitPools) return a no-op.
func (p *ShardPool) acquire() func() {
	if p == nil || p.tokens == nil {
		return func() {}
	}
	p.tokens <- struct{}{}
	return func() { <-p.tokens }
}

// ForEach is ForEach bounded by the pool's budget instead of the global
// knob: f(i) runs for every i in [0, n) across min(Workers(), n) goroutines
// pulling from a shared counter. The first error observed wins and stops the
// loop (any error aborts the caller, so which one is reported doesn't affect
// results); the happy path allocates O(workers), not O(n). A nil pool runs
// sequentially.
func (p *ShardPool) ForEach(n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		release := p.acquire()
		defer release()
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var firstErr atomic.Pointer[error]
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release := p.acquire()
			defer release()
			for firstErr.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					// Copy before taking the address: &err directly would
					// make err escape and cost one heap allocation per
					// iteration on the happy path too.
					e := err
					firstErr.CompareAndSwap(nil, &e)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// ForRange runs f over the RangeChunksAt(n, Workers()) contiguous chunks
// covering [0, n) on the pool's workers, with the same ownership contract as
// the package ForRange. The grain is a pure function of (n, pool budget);
// chunk-level reductions stay partition-independent, so results are
// byte-identical at every budget.
func (p *ShardPool) ForRange(n int, f func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	chunks := RangeChunksAt(n, p.Workers())
	return p.ForEach(chunks, func(i int) error {
		lo, hi := ChunkBoundsIn(n, chunks, i)
		return f(lo, hi)
	})
}
