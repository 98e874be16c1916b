package acd

import (
	"math"
	"sort"

	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// edgeBlockBytes is the sketch-row footprint one predicate block targets:
// small enough that a block of target rows stays cache-resident while every
// admitted edge into it is judged, large enough that per-block bookkeeping
// stays negligible next to the estimates.
const edgeBlockBytes = 512 << 10

// edgeBlockRows converts the block budget into a target-row count for rows of
// rowBytes bytes.
func edgeBlockRows(rowBytes int) int {
	if rowBytes < 1 {
		rowBytes = 1
	}
	rows := edgeBlockBytes / rowBytes
	if rows < 64 {
		rows = 64
	}
	return rows
}

// fillBuddyBits memoizes the buddy predicate into the workspace's packed
// bitmap: one word-aligned region per slice, indexed by the slice's local
// directed slots (wordOff[s] is slice s's first word). The bit of an owned
// directed edge (lv, lu) is set when both endpoints pass admit (global ids)
// and judge(sc, s, lv, lu) holds.
//
// The predicate dominates the decomposition's CPU, so each edge is judged as
// few times as the partition allows. An owned↔owned edge is judged once,
// from its lower endpoint, and a mirror pass copies its bit onto the reverse
// slot. A cut edge (owned↔halo) is judged once by each of its two owners;
// judge is symmetric in its endpoints (the kernel's merge is commutative),
// so both owners set the same bit. On the one-slice partition this is
// exactly one judgement per edge.
//
// Judging is cache-blocked within each chunk (blockedEdgeSweep; rowBytes is
// the sketch-row width in bytes). Setting bits is order-free, so the bitmap
// is byte-identical to a per-source scan at any parallelism.
func fillBuddyBits(se *shard.Engine[int8], ws *Workspace, rowBytes int, admit func(v int) bool, judge func(sc *sketch.Scratch[int8], s, lv, lu int) bool) ([]uint64, []int, error) {
	wordOff := buddyWordOffsets(se.SG)
	ws.buddy = grow(ws.buddy, wordOff[len(wordOff)-1])
	clear(ws.buddy)
	bits := ws.buddy
	blockRows := edgeBlockRows(rowBytes)
	if err := eachOwnedChunk(se, bits, wordOff, func(s int, sl *graph.ShardSlice, lo, hi int, set func(lslot int)) {
		var sc sketch.Scratch[int8]
		blockedEdgeSweep(sl, lo, hi, blockRows, admit, func(lv, lu, lslot int) {
			if admit(sl.ToGlobal(lu)) && judge(&sc, s, lv, lu) {
				set(lslot)
			}
		})
	}); err != nil {
		return nil, nil, err
	}
	// Mirror pass. A word holding the forward bits one worker reads can be
	// a word another worker writes reverse bits into, so the forward bits
	// are read from an immutable snapshot.
	ws.buddySrc = grow(ws.buddySrc, len(bits))
	copy(ws.buddySrc, bits)
	if err := eachOwnedChunk(se, bits, wordOff, func(s int, sl *graph.ShardSlice, lo, hi int, set func(lslot int)) {
		src := ws.buddySrc[wordOff[s]:wordOff[s+1]]
		for lv := lo; lv < hi; lv++ {
			base := sl.CSR.AdjOffset(lv)
			for j, lu32 := range sl.CSR.Neighbors(lv) {
				lu := int(lu32)
				if lu >= lv {
					break // rows ascend, and halo ids follow every owned id
				}
				fwd := sl.CSR.AdjOffset(lu) + sl.CSR.NeighborIndex(lu, lv)
				if src[fwd>>6]&(1<<(fwd&63)) != 0 {
					set(base + j)
				}
			}
		}
	}); err != nil {
		return nil, nil, err
	}
	return bits, wordOff, nil
}

// buddyWordOffsets returns the first word of each slice's region of the
// buddy bitmap, plus the total word count at the end.
func buddyWordOffsets(sg *graph.ShardedGraph) []int {
	wordOff := make([]int, sg.NumShards()+1)
	for s, sl := range sg.Slices {
		wordOff[s+1] = wordOff[s] + (sl.CSR.AdjOffset(sl.Own())+63)/64
	}
	return wordOff
}

// eachOwnedChunk runs body over every slice's owned rows, cut into
// degree-weighted chunks on the slice's pool share, and hands each chunk a
// set(lslot) that sets a bit in the slice's region of bits. A chunk owns the
// words from its first slot rounded up to a word boundary; bits below that
// spill and are applied once the slice's chunks drain. Regions are
// word-aligned, so no two workers ever write one word and the packed bitmap
// stays race-free without atomics.
func eachOwnedChunk(se *shard.Engine[int8], bits []uint64, wordOff []int, body func(s int, sl *graph.ShardSlice, lo, hi int, set func(lslot int))) error {
	_, err := parwork.ForEach(se.SG.NumShards(), func(s int) (struct{}, error) {
		sl := se.SG.Slices[s]
		own := sl.Own()
		region := bits[wordOff[s]:wordOff[s+1]]
		chunks := parwork.RangeChunksAt(own, se.Pool(s).Workers())
		cum := func(v int) int64 { return int64(sl.CSR.AdjOffset(v)) + 16*int64(v) }
		spills := make([][]int, chunks)
		if err := se.Pool(s).ForEach(chunks, func(ci int) error {
			lo, hi := parwork.WeightedChunkBounds(own, chunks, ci, cum)
			ownStart := (sl.CSR.AdjOffset(lo) + 63) &^ 63
			body(s, sl, lo, hi, func(lslot int) {
				if lslot < ownStart {
					spills[ci] = append(spills[ci], lslot)
					return
				}
				region[lslot>>6] |= 1 << (lslot & 63)
			})
			return nil
		}); err != nil {
			return struct{}{}, err
		}
		for _, sp := range spills {
			for _, lslot := range sp {
				region[lslot>>6] |= 1 << (lslot & 63)
			}
		}
		return struct{}{}, nil
	})
	return err
}

// blockedEdgeSweep drives the cache-blocked judging of a chunk: for every
// admitted owned source lv in [lo, hi) it calls eval(lv, lu, lslot) for each
// forward neighbor lu > lv — the owned neighbors above lv and every halo
// neighbor — sweeping the sources' forward runs in ascending blocks of
// blockRows local target ids. Slice neighbor lists are sorted ascending by
// local id (owned then halo sub-rows), so each source contributes one
// contiguous run per round, and a block of target rows is reused by every
// source in the chunk while it is cache-resident instead of each source
// streaming the whole id range. admit takes the source's global id. eval
// sees the same (lv, lu, lslot) triples as a per-source scan, in a different
// order.
func blockedEdgeSweep(sl *graph.ShardSlice, lo, hi, blockRows int, admit func(v int) bool, eval func(lv, lu, lslot int)) {
	var srcs, cur []int32
	for lv := lo; lv < hi; lv++ {
		if !admit(sl.Lo + lv) {
			continue
		}
		nb := sl.CSR.Neighbors(lv)
		if j := sort.Search(len(nb), func(i int) bool { return int(nb[i]) > lv }); j < len(nb) {
			srcs = append(srcs, int32(lv))
			cur = append(cur, int32(j))
		}
	}
	for len(srcs) > 0 {
		blockLo := math.MaxInt
		for i, v32 := range srcs {
			if u := int(sl.CSR.Neighbors(int(v32))[cur[i]]); u < blockLo {
				blockLo = u
			}
		}
		blockHi := blockLo + blockRows
		alive := 0
		for i, v32 := range srcs {
			lv := int(v32)
			nb := sl.CSR.Neighbors(lv)
			base := sl.CSR.AdjOffset(lv)
			j := int(cur[i])
			for j < len(nb) && int(nb[j]) < blockHi {
				eval(lv, int(nb[j]), base+j)
				j++
			}
			if j < len(nb) {
				srcs[alive] = v32
				cur[alive] = int32(j)
				alive++
			}
		}
		srcs = srcs[:alive]
		cur = cur[:alive]
	}
}
