package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"clustercolor"
	"clustercolor/internal/acd"
	"clustercolor/internal/cluster"
	"clustercolor/internal/core"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// span is one timed call the benchmark made into a layer. Spans are kept in
// memory and written once, after the run.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNs: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

// end closes span i and returns its duration in seconds.
func (t *tracer) end(i int) float64 {
	s := &t.spans[i]
	s.DurNs = int64(time.Since(t.origin)) - s.StartNs
	return float64(s.DurNs) / 1e9
}

// coreStages are the top-level entries of core.Stats.StageNs, each reported
// as core.<stage>_s. They do not overlap, so with the expand and cluster
// parts they split the replay's wall; whatever they leave is
// core.unattributed_s. "exchange" is reported too but is not among them: it
// is measured inside "decompose".
var coreStages = []string{"decompose", "lowdegree", "slackgen", "sparse", "matchings", "scts", "palettes", "donate", "fallback"}

// roundGroups are the first path segments of the cost model's phase labels,
// each reported as network.rounds.<group>; labels outside the list add to
// network.rounds.other, so the groups always sum to the run's rounds.
var roundGroups = []string{"acd", "profile", "sparse", "noncabal", "cabal", "matching", "sct", "complete", "palette", "slackgen", "lowdeg", "fallback"}

// Certificate settings: the E5 tolerance for Validate and the sample size of
// SparseQualitySampled.
const (
	validateEps   = 0.35
	sparseSamples = 256
)

// resolveParams mirrors clustercolor.Color's parameter resolution.
func resolveParams(opts clustercolor.Options, n int) core.Params {
	p := opts.Params
	if p.IsZero() {
		p = core.DefaultParams(n)
	}
	p.Seed = opts.Seed
	if opts.Shards > 0 {
		p.Shards = opts.Shards
	}
	return p
}

// expand mirrors clustercolor.Color's expansion of h into machines.
func expand(h *graph.Graph, opts clustercolor.Options) (*graph.Expansion, error) {
	topo := graph.TopologySingleton
	switch opts.Topology {
	case clustercolor.PathCluster:
		topo = graph.TopologyPath
	case clustercolor.StarCluster:
		topo = graph.TopologyStar
	case clustercolor.TreeCluster:
		topo = graph.TopologyTree
	}
	spec := graph.ExpandSpec{Topology: topo, MachinesPerCluster: max(opts.MachinesPerCluster, 1), RedundantLinks: opts.RedundantLinks}
	return graph.Expand(h, spec, graph.NewRand(opts.Seed^0xa5a5a5a5))
}

// newCG mirrors clustercolor.Color's cost model and cluster-graph build.
func newCG(h *graph.Graph, exp *graph.Expansion) (*cluster.CG, error) {
	cost, err := network.NewCostModel(clustercolor.DefaultBandwidth(exp.G.N()))
	if err != nil {
		return nil, err
	}
	return cluster.New(h, exp, cost)
}

// replay is one traced pass over Color's public steps.
type replay struct {
	wall, expand, build, cpu float64
	stats                    *core.Stats
	colors                   []int
	allocBytes, mallocs      uint64
	gcCycles                 uint32
	gcPauseNs                uint64
}

// replayOnce runs graph.Expand → network.NewCostModel + cluster.New →
// core.Color, timing each call. The wall spans the same steps as a
// clustercolor.Color call; verification is left to the caller.
func replayOnce(h *graph.Graph, opts clustercolor.Options, params core.Params, tr *tracer, parent int) (replay, error) {
	var r replay
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	root := tr.begin("replay", parent)
	sp := tr.begin("graph.expand", root)
	exp, err := expand(h, opts)
	r.expand = tr.end(sp)
	if err != nil {
		return r, fmt.Errorf("graph.Expand: %w", err)
	}
	sp = tr.begin("cluster.build", root)
	cg, err := newCG(h, exp)
	r.build = tr.end(sp)
	if err != nil {
		return r, fmt.Errorf("cluster build: %w", err)
	}
	sp = tr.begin("core.color", root)
	col, stats, err := core.Color(cg, params)
	tr.end(sp)
	r.wall = tr.end(root)
	r.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, fmt.Errorf("core.Color: %w", err)
	}
	r.stats = stats
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	r.colors = make([]int, h.N())
	for v := range r.colors {
		r.colors[v] = int(col.Get(v))
	}
	return r, nil
}

// split returns the replay's per-layer times and the remainder of its wall
// they leave, which is never negative unless parts overlap.
func (r replay) split() (parts map[string]float64, unattributed float64) {
	parts = map[string]float64{"graph.expand_s": r.expand, "cluster.build_s": r.build}
	unattributed = r.wall - r.expand - r.build
	for _, st := range coreStages {
		d := float64(r.stats.StageNs[st]) / 1e9
		parts["core."+st+"_s"] = d
		unattributed -= d
	}
	return parts, unattributed
}

// roundsByGroup groups the run's phase rounds by their first path segment.
func roundsByGroup(phases map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(roundGroups)+1)
	for _, g := range roundGroups {
		out[g] = 0
	}
	out["other"] = 0
	for label, r := range phases {
		g, _, _ := strings.Cut(label, "/")
		if _, ok := out[g]; !ok {
			g = "other"
		}
		out[g] += r
	}
	return out
}

// acdProbe is the decomposition measured on its own: the same calls core's
// decompose stage makes (sharded when sg is set), from the same seed, plus
// the certificate.
type acdProbe struct {
	compute, profile float64
	cliques, cabals  int
	violFrac         float64
	sparseQuality    float64
}

func runACDProbe(h *graph.Graph, cg *cluster.CG, sg *graph.ShardedGraph, params core.Params, tr *tracer, parent int) (acdProbe, error) {
	var p acdProbe
	ws := acd.NewWorkspace()
	rng := parwork.StreamRNG(params.Seed)
	delta := float64(h.MaxDegree())
	ell := params.Ell(h.N())
	compute := func() (*acd.Decomposition, error) { return acd.ComputeWith(cg, params.Eps, rng, ws) }
	profile := func(d *acd.Decomposition) (*acd.Profile, error) {
		return acd.BuildProfileWith(cg, d, delta, ell, rng, ws)
	}
	if sg != nil {
		se := shard.NewEngine(sg, sketch.MaxKernel{})
		compute = func() (*acd.Decomposition, error) { return acd.ComputeShardedWith(cg, se, params.Eps, rng, ws) }
		profile = func(d *acd.Decomposition) (*acd.Profile, error) {
			return acd.BuildProfileShardedWith(cg, se, d, delta, ell, rng, ws)
		}
	}
	sp := tr.begin("acd.compute", parent)
	d, err := compute()
	p.compute = tr.end(sp)
	if err != nil {
		return p, fmt.Errorf("acd compute: %w", err)
	}
	sp = tr.begin("acd.profile", parent)
	prof, err := profile(d)
	p.profile = tr.end(sp)
	if err != nil {
		return p, fmt.Errorf("acd profile: %w", err)
	}
	p.cliques = len(d.Cliques)
	for _, c := range prof.IsCabal {
		if c {
			p.cabals++
		}
	}
	sp = tr.begin("acd.certificate", parent)
	p.violFrac, err = d.Validate(h, validateEps)
	if err == nil {
		p.sparseQuality = d.SparseQualitySampled(h, sparseSamples, params.Seed)
		// With no sparse vertex the minimum is over an empty set (+Inf);
		// report the largest value sparsity can take, (Δ−1)/2.
		p.sparseQuality = math.Min(p.sparseQuality, (delta-1)/2)
	}
	tr.end(sp)
	if err != nil {
		return p, fmt.Errorf("decomposition certificate: %w", err)
	}
	return p, nil
}

// sketchProbe is the decomposition's first wave replayed through the sketch
// engine's public calls, with the row width acd uses.
type sketchProbe struct {
	fill, collect, estimate, predicate float64
	calls, accepted                    int64
	payloadBits, rowCells              int
}

func runSketchProbe(h *graph.Graph, cg *cluster.CG, params core.Params, tr *tracer, parent int) (sketchProbe, error) {
	var p sketchProbe
	n := h.N()
	delta := float64(h.MaxDegree())
	xi := params.Eps / 2
	t, err := fingerprint.TrialsFor(xi/2, n)
	if err != nil {
		return p, err
	}
	p.rowCells = t
	seed := parwork.StreamRNG(params.Seed).Uint64() // acd's first draw
	eng := sketch.NewEngine[int8](sketch.MaxKernel{})
	sp := tr.begin("sketch.fill", parent)
	err = eng.FillSamples(n, t, parwork.RowSeed(seed, 0))
	p.fill = tr.end(sp)
	if err != nil {
		return p, fmt.Errorf("Engine.FillSamples: %w", err)
	}
	sp = tr.begin("sketch.collect", parent)
	p.payloadBits, err = eng.Collect(cg, "acd/nbhd", sketch.CollectOptions{})
	p.collect = tr.end(sp)
	if err != nil {
		return p, fmt.Errorf("Engine.Collect: %w", err)
	}
	deg := make([]float64, n)
	sp = tr.begin("sketch.estimate", parent)
	err = parwork.ForRange(n, func(lo, hi int) error {
		var est sketch.MaxEstimator[int8]
		for v := lo; v < hi; v++ {
			deg[v] = est.Estimate(eng.Row(v))
		}
		return nil
	})
	p.estimate = tr.end(sp)
	if err != nil {
		return p, err
	}
	// The buddy predicate over every forward edge whose endpoints both pass
	// the degree cut, as acd judges them.
	lowCut := (1 - 1.5*xi) * delta
	joinCut := (1 + 1.5*xi) * delta
	chunks := parwork.RangeChunks(n)
	cum := func(v int) int64 { return int64(h.AdjOffset(v)) + 16*int64(v) }
	sp = tr.begin("sketch.predicate", parent)
	counts, err := parwork.ForEach(chunks, func(ci int) ([2]int64, error) {
		lo, hi := parwork.WeightedChunkBounds(n, chunks, ci, cum)
		var sc sketch.Scratch[int8]
		var c [2]int64
		for v := lo; v < hi; v++ {
			if deg[v] < lowCut {
				continue
			}
			for _, u32 := range h.Neighbors(v) {
				u := int(u32)
				if u <= v || deg[u] < lowCut {
					continue
				}
				c[0]++
				if sc.Est.EstimateMerged(eng.Row(v), eng.Row(u)) <= joinCut {
					c[1]++
				}
			}
		}
		return c, nil
	})
	p.predicate = tr.end(sp)
	if err != nil {
		return p, err
	}
	for _, c := range counts {
		p.calls += c[0]
		p.accepted += c[1]
	}
	return p, nil
}

// traceRun is the traced run: the instance is generated as in measure, then
// Color's steps are replayed for cfg.seconds (at least once) and the median
// replay by wall supplies the layer split. The probes run once after.
func traceRun(cfg config) (result, []span, error) {
	tr := &tracer{origin: time.Now()}
	run := tr.begin("run", -1)
	sp := tr.begin("setup", run)
	h, generate, err := setUp(cfg.w, cfg.seed)
	tr.end(sp)
	if err != nil {
		return result{}, nil, err
	}
	opts := cfg.w.options(cfg.seed)
	params := resolveParams(opts, h.N())
	t := tally{tamper: cfg.tamper, log: cfg.log}
	var reps []replay
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < cfg.seconds {
		if len(reps) == 0 && t.attempted >= minCalls {
			return result{}, nil, fmt.Errorf("none of %d replays passed", t.attempted)
		}
		r, err := replayOnce(h, opts, params, tr, run)
		if t.record(h, r.colors, r.stats, err) {
			r.colors = nil
			reps = append(reps, r)
		}
	}
	rep := medianReplay(reps)
	stats := rep.stats
	correct := t.failed == 0

	// Probes: the shard split, then (on the high-degree path, the only one
	// that runs them) the decomposition and its first sketch wave.
	var split float64
	var sg *graph.ShardedGraph
	if params.Shards > 1 {
		sp := tr.begin("graph.shard_split", run)
		sg, err = graph.NewShardedGraph(h, params.Shards)
		split = tr.end(sp)
		if err != nil {
			return result{}, nil, fmt.Errorf("graph.NewShardedGraph: %w", err)
		}
	}
	var ap acdProbe
	var kp sketchProbe
	if stats.Path == "high-degree" {
		exp, err := expand(h, opts)
		if err != nil {
			return result{}, nil, err
		}
		cg, err := newCG(h, exp)
		if err != nil {
			return result{}, nil, err
		}
		sp := tr.begin("probe.acd", run)
		ap, err = runACDProbe(h, cg, sg, params, tr, sp)
		tr.end(sp)
		if err != nil {
			return result{}, nil, err
		}
		if ap.cliques != stats.NumCliques || ap.cabals != stats.NumCabals {
			correct = false
			fmt.Fprintf(cfg.log, "perfbench: acd probe found %d cliques/%d cabals, Color %d/%d\n", ap.cliques, ap.cabals, stats.NumCliques, stats.NumCabals)
		}
		sp = tr.begin("probe.sketch", run)
		kp, err = runSketchProbe(h, cg, params, tr, sp)
		tr.end(sp)
		if err != nil {
			return result{}, nil, err
		}
	}
	tr.end(run)

	parts, unattributed := rep.split()
	if unattributed < 0 {
		fmt.Fprintf(cfg.log, "perfbench: layer parts exceed the replay wall by %.6fs\n", -unattributed)
	}
	groups := roundsByGroup(stats.PhaseRounds)
	var grouped int64
	for _, r := range groups {
		grouped += r
	}
	if grouped != stats.Rounds || groups["fallback"] != stats.FallbackRounds {
		correct = false
		fmt.Fprintf(cfg.log, "perfbench: phase rounds sum to %d (fallback %d), run charged %d (fallback %d)\n", grouped, groups["fallback"], stats.Rounds, stats.FallbackRounds)
	}
	sketchTotal := kp.fill + kp.collect + kp.estimate + kp.predicate
	m := map[string]metric{
		"trace.wall_s":           {rep.wall, "s"},
		"graph.generate_s":       {generate, "s"},
		"graph.shard_split_s":    {split, "s"},
		"core.unattributed_s":    {unattributed, "s"},
		"core.exchange_s":        {float64(stats.StageNs["exchange"]) / 1e9, "s"},
		"core.cliques":           {float64(stats.NumCliques), "count"},
		"core.cabals":            {float64(stats.NumCabals), "count"},
		"core.sparse_vertices":   {float64(stats.NumSparse), "count"},
		"core.putaside_donated":  {float64(stats.PutAsideDonated), "count"},
		"core.matching_repeats":  {float64(stats.MatchingRepeats), "count"},
		"core.fallback_colored":  {float64(stats.FallbackColored), "count"},
		"core.dropped_writes":    {float64(stats.ParallelDroppedWrites), "count"},
		"shard.exchanged_rows":   {float64(stats.ShardExchangedRows), "rows"},
		"shard.exchanged_bits":   {float64(stats.ShardExchangedBits), "bits"},
		"acd.compute_s":          {ap.compute, "s"},
		"acd.profile_s":          {ap.profile, "s"},
		"acd.violation_frac":     {ap.violFrac, "ratio"},
		"acd.sparse_quality":     {ap.sparseQuality, "sparsity"},
		"sketch.fill_s":          {kp.fill, "s"},
		"sketch.collect_s":       {kp.collect, "s"},
		"sketch.estimate_s":      {kp.estimate, "s"},
		"sketch.predicate_s":     {kp.predicate, "s"},
		"sketch.predicate_calls": {float64(kp.calls), "count"},
		"sketch.predicate_ns":    {ratio(kp.predicate*1e9, float64(kp.calls)), "ns"},
		"sketch.buddy_ratio":     {ratio(float64(kp.accepted), float64(kp.calls)), "ratio"},
		"sketch.payload_bits":    {float64(kp.payloadBits), "bits"},
		"sketch.row_cells":       {float64(kp.rowCells), "cells"},
		"sketch.coverage":        {ratio(sketchTotal, ap.compute), "ratio"},
		"parwork.utilization":    {rep.cpu / (rep.wall * float64(runtime.GOMAXPROCS(0))), "ratio"},
		"runtime.alloc_bytes":    {float64(rep.allocBytes), "bytes"},
		"runtime.mallocs":        {float64(rep.mallocs), "count"},
		"runtime.gc_cycles":      {float64(rep.gcCycles), "count"},
		"runtime.gc_pause_s":     {float64(rep.gcPauseNs) / 1e9, "s"},
		"runtime.peak_rss_bytes": {peakRSS(), "bytes"},
	}
	for name, d := range parts {
		m[name] = metric{d, "s"}
	}
	for g, r := range groups {
		m["network.rounds."+g] = metric{float64(r), "rounds"}
	}
	fmt.Fprintf(cfg.log, "perfbench: %s traced n=%d m=%d replays=%d path=%s\n", cfg.w.name, h.N(), h.M(), len(reps), stats.Path)
	return result{Correct: correct, Attempted: t.attempted, Failed: t.failed, Metrics: m}, tr.spans, nil
}

// medianReplay returns the replay with the median wall (the lower middle
// one for an even count), so the reported parts all come from one replay
// and add up to its wall.
func medianReplay(reps []replay) replay {
	s := append([]replay(nil), reps...)
	sort.Slice(s, func(i, j int) bool { return s[i].wall < s[j].wall })
	return s[(len(s)-1)/2]
}

// ratio is a/b, or 0 when b is 0 (the layer did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
