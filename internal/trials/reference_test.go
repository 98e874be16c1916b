package trials

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
)

// refTryColorRound is the full-scan TryColor round the session replaced,
// kept as its reference: a draw over all n that asks Active per round, a
// tried array over all n, a win array over all n, a decide pass over every
// vertex reading the coloring and the tried array per neighbor, and a serial
// apply over all n.
func refTryColorRound(cg *cluster.CG, col *coloring.Coloring, opts TryColorOptions, rng *rand.Rand) (int, error) {
	if opts.Space == nil {
		return 0, fmt.Errorf("trials: nil color space")
	}
	p := opts.Activation
	if p <= 0 || p > 1 {
		p = 1
	}
	n := cg.H.N()
	tried := make([]int32, n)
	for v := 0; v < n; v++ {
		if col.IsColored(v) {
			continue
		}
		if opts.Active != nil && !opts.Active(v) {
			continue
		}
		if rng.Float64() >= p {
			continue
		}
		space := opts.Space(v)
		if len(space) == 0 {
			continue
		}
		tried[v] = space[rng.IntN(len(space))]
	}
	colorBits := bits.Len(uint(col.MaxColor())) + 1
	cg.ChargeHRounds(opts.Phase+"/announce", 1, colorBits)
	cg.ChargeHRounds(opts.Phase+"/respond", 1, colorBits)
	win := make([]int32, n)
	for v := 0; v < n; v++ {
		c := tried[v]
		if c == coloring.None {
			continue
		}
		ok := true
		for _, u := range cg.H.Neighbors(v) {
			w := int(u)
			if col.Get(w) == c || (w < v && tried[w] == c) {
				ok = false
				break
			}
		}
		if ok {
			win[v] = c
		}
	}
	colored := 0
	for v := 0; v < n; v++ {
		if win[v] == coloring.None {
			continue
		}
		if err := col.Set(v, win[v]); err != nil {
			return colored, fmt.Errorf("trials: adopting color: %w", err)
		}
		colored++
	}
	return colored, nil
}

// refTryColorLoop is TryColorLoop over refTryColorRound, rescanning the
// active set before every round as the reference did.
func refTryColorLoop(cg *cluster.CG, col *coloring.Coloring, opts TryColorOptions, maxRounds int, rng *rand.Rand) (int, error) {
	for r := 0; r < maxRounds; r++ {
		if remainingActive(cg, col, opts.Active) == 0 {
			return 0, nil
		}
		if _, err := refTryColorRound(cg, col, opts, rng); err != nil {
			return 0, err
		}
	}
	return remainingActive(cg, col, opts.Active), nil
}

// refCase is one graph with a partial coloring to start from.
type refCase struct {
	name string
	h    *graph.Graph
}

func refCases(t *testing.T) []refCase {
	t.Helper()
	gnp := func(n int, p float64, seed uint64) *graph.Graph {
		h, err := graph.GNP(n, p, graph.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	return []refCase{
		{"gnp/n=3000/deg=16", gnp(3000, 16.0/3000, 31)},
		{"gnp/n=500/deg=40", gnp(500, 40.0/500, 32)},
		{"path/n=1000", graph.Path(1000)},
		{"clique/n=60", graph.Clique(60)},
	}
}

// precolor colors about a fifth of the vertices properly from [1, Δ+1] with
// its own rng, so both sides start from the same partial coloring.
func precolor(t *testing.T, h *graph.Graph, seed uint64) *coloring.Coloring {
	t.Helper()
	col := coloring.New(h.N(), h.MaxDegree())
	rng := graph.NewRand(seed)
	for v := 0; v < h.N(); v++ {
		if rng.IntN(5) != 0 {
			continue
		}
		pal := coloring.Palette(h, col, v)
		if len(pal) == 0 {
			continue
		}
		if err := col.Set(v, pal[rng.IntN(len(pal))]); err != nil {
			t.Fatal(err)
		}
	}
	return col
}

// refSpaces are the color spaces the comparison runs: the full palette,
// each vertex's true palette, an empty space, and a one-color space.
func refSpaces(col *coloring.Coloring, h *graph.Graph) map[string]func(v int) []int32 {
	full := RangeSpace(1, col.MaxColor())
	one := []int32{col.MaxColor()}
	return map[string]func(v int) []int32{
		"full":    func(v int) []int32 { return full },
		"palette": func(v int) []int32 { return coloring.Palette(h, col, v) },
		"empty":   func(v int) []int32 { return nil },
		"one":     func(v int) []int32 { return one },
	}
}

func sameColoring(t *testing.T, what string, got, want *coloring.Coloring) {
	t.Helper()
	for v := 0; v < want.N(); v++ {
		if got.Get(v) != want.Get(v) {
			t.Fatalf("%s: vertex %d colored %d, reference %d", what, v, got.Get(v), want.Get(v))
		}
	}
}

// TestTryColorRoundMatchesReference runs one session and the full-scan
// reference side by side, round after round, on GNP, path and clique graphs
// with pre-colored vertices, at activations 0.3, 0.7 and 1, with and without
// an Active subset, over full, palette, empty and one-color spaces. Both
// must leave the same coloring, return the same count, charge the same
// rounds and leave the rng at the same next draw, and the session's
// remainder must equal a rescan of the active set.
func TestTryColorRoundMatchesReference(t *testing.T) {
	for ci, rc := range refCases(t) {
		for _, p := range []float64{0.3, 0.7, 1} {
			for _, subset := range []bool{false, true} {
				var active func(v int) bool
				if subset {
					active = func(v int) bool { return v%3 != 1 }
				}
				base := precolor(t, rc.h, uint64(100+ci))
				for name := range refSpaces(base, rc.h) {
					what := fmt.Sprintf("%s/p=%v/subset=%v/%s", rc.name, p, subset, name)
					got, want := base.Clone(), base.Clone()
					cgGot, cgWant := testCG(t, rc.h), testCG(t, rc.h)
					optsGot := TryColorOptions{Phase: "ref", Active: active, Space: refSpaces(got, rc.h)[name], Activation: p}
					optsWant := optsGot
					optsWant.Space = refSpaces(want, rc.h)[name]
					rngGot, rngWant := graph.NewRand(uint64(7+ci)), graph.NewRand(uint64(7+ci))
					s := NewTryColorSession(cgGot, got, active)
					for r := 0; r < 4; r++ {
						n, err := s.Round(optsGot, rngGot)
						if err != nil {
							t.Fatalf("%s round %d: %v", what, r, err)
						}
						wantN, err := refTryColorRound(cgWant, want, optsWant, rngWant)
						if err != nil {
							t.Fatalf("%s round %d: reference: %v", what, r, err)
						}
						if n != wantN {
							t.Fatalf("%s round %d: colored %d, reference %d", what, r, n, wantN)
						}
						if rescan := remainingActive(cgWant, want, active); s.Left() != rescan {
							t.Fatalf("%s round %d: left %d, rescan %d", what, r, s.Left(), rescan)
						}
						sameColoring(t, fmt.Sprintf("%s round %d", what, r), got, want)
					}
					if a, b := rngGot.Uint64(), rngWant.Uint64(); a != b {
						t.Fatalf("%s: next rng draw %#x, reference %#x", what, a, b)
					}
					if a, b := cgGot.Cost().Rounds(), cgWant.Cost().Rounds(); a != b {
						t.Fatalf("%s: charged %d rounds, reference %d", what, a, b)
					}
				}
			}
		}
	}
}

// TestTryColorSessionMatchesReferenceAtWidths runs one session against the
// full-scan reference, round by round, at the two state widths: a coloring
// sized to Δ+1 = 127 keeps int8 words and one sized to Δ+1 = 128 keeps
// int32 words. The session runs six full-space rounds and then palette-space
// rounds until nothing is left, from a pre-colored start, with and without
// an Active subset, at parallelism 1, 2 and 4. After every round the
// coloring, the colored count, the remainder against a rescan, and the
// charged rounds must match; after each phase, the session's Uncolored
// against a rescan; and at the end, the next rng draw.
func TestTryColorSessionMatchesReferenceAtWidths(t *testing.T) {
	h := graph.MustGNP(2500, 40.0/2500, graph.NewRand(51))
	for _, delta := range []int{126, 127} {
		if h.MaxDegree() > delta {
			t.Fatalf("Δ(H) = %d exceeds the coloring's Δ %d", h.MaxDegree(), delta)
		}
		for _, subset := range []bool{false, true} {
			var active func(v int) bool
			if subset {
				active = func(v int) bool { return v%5 != 2 }
			}
			for _, par := range []int{1, 2, 4} {
				what := fmt.Sprintf("Δ+1=%d/subset=%v/parallelism=%d", delta+1, subset, par)
				got, want := widthStart(t, h, delta), widthStart(t, h, delta)
				cgGot, cgWant := testCG(t, h), testCG(t, h)
				rngGot, rngWant := graph.NewRand(53), graph.NewRand(53)
				full := RangeSpace(1, int32(delta+1))
				phases := []struct {
					name                string
					rounds              int
					spaceGot, spaceWant func(v int) []int32
				}{
					{"full", 6, func(int) []int32 { return full }, func(int) []int32 { return full }},
					{"palette", 40,
						func(v int) []int32 { return coloring.Palette(h, got, v) },
						func(v int) []int32 { return coloring.Palette(h, want, v) }},
				}
				prev := parwork.SetParallelism(par)
				s := NewTryColorSession(cgGot, got, active)
				for _, ph := range phases {
					for r := 0; r < ph.rounds && s.Left() > 0; r++ {
						at := fmt.Sprintf("%s %s round %d", what, ph.name, r)
						n, err := s.Round(TryColorOptions{Phase: ph.name, Space: ph.spaceGot, Activation: 0.6}, rngGot)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						wantN, err := refTryColorRound(cgWant, want, TryColorOptions{Phase: ph.name, Active: active, Space: ph.spaceWant, Activation: 0.6}, rngWant)
						if err != nil {
							t.Fatalf("%s: reference: %v", at, err)
						}
						if n != wantN {
							t.Fatalf("%s: colored %d, reference %d", at, n, wantN)
						}
						if rescan := remainingActive(cgWant, want, active); s.Left() != rescan {
							t.Fatalf("%s: left %d, rescan %d", at, s.Left(), rescan)
						}
						if a, b := cgGot.Cost().Rounds(), cgWant.Cost().Rounds(); a != b {
							t.Fatalf("%s: charged %d rounds, reference %d", at, a, b)
						}
						sameColoring(t, at, got, want)
					}
					var rescan []int32
					for v := 0; v < h.N(); v++ {
						if !want.IsColored(v) && (active == nil || active(v)) {
							rescan = append(rescan, int32(v))
						}
					}
					if left := s.Uncolored(); !slices.Equal(left, rescan) {
						t.Fatalf("%s after the %s rounds: Uncolored %v, rescan %v", what, ph.name, left, rescan)
					}
				}
				parwork.SetParallelism(prev)
				if a, b := rngGot.Uint64(), rngWant.Uint64(); a != b {
					t.Fatalf("%s: next rng draw %#x, reference %#x", what, a, b)
				}
			}
		}
	}
}

// widthStart colors about a fifth of h's vertices properly from [1, Δ+1]
// for a coloring sized to delta, with its own rng.
func widthStart(t *testing.T, h *graph.Graph, delta int) *coloring.Coloring {
	t.Helper()
	col := coloring.New(h.N(), delta)
	rng := graph.NewRand(52)
	for v := 0; v < h.N(); v++ {
		if rng.IntN(5) != 0 {
			continue
		}
		pal := coloring.Palette(h, col, v)
		if err := col.Set(v, pal[rng.IntN(len(pal))]); err != nil {
			t.Fatal(err)
		}
	}
	return col
}

// TestTryColorSessionAsksActiveOnce: a session asks Active once per
// uncolored vertex when it starts, and never for a colored vertex or in a
// round.
func TestTryColorSessionAsksActiveOnce(t *testing.T) {
	h := graph.MustGNP(600, 12.0/600, graph.NewRand(61))
	col := precolor(t, h, 62)
	asked := make([]int, h.N())
	s := NewTryColorSession(testCG(t, h), col, func(v int) bool {
		asked[v]++
		return v%2 == 0
	})
	for v, k := range asked {
		if want := map[bool]int{true: 0, false: 1}[col.IsColored(v)]; k != want {
			t.Fatalf("vertex %d asked %d times at the start, want %d", v, k, want)
		}
	}
	clear(asked)
	rng := graph.NewRand(63)
	for r := 0; r < 5 && s.Left() > 0; r++ {
		if _, err := s.Round(TryColorOptions{Phase: "once", Space: func(v int) []int32 { return coloring.Palette(h, col, v) }, Activation: 0.5}, rng); err != nil {
			t.Fatal(err)
		}
	}
	for v, k := range asked {
		if k != 0 {
			t.Fatalf("vertex %d asked %d times during rounds", v, k)
		}
	}
}

// TestTryColorLoopMatchesReference compares TryColorLoop, which counts its
// remainder from each round's draw, with the reference loop that rescans
// the active set before every round: same coloring, remainder, rounds and
// next rng draw, including a loop whose active set is already colored and
// a zero-round loop.
func TestTryColorLoopMatchesReference(t *testing.T) {
	for ci, rc := range refCases(t) {
		for _, p := range []float64{0.3, 0.7, 1} {
			for _, rounds := range []int{0, 3, 40} {
				base := precolor(t, rc.h, uint64(200+ci))
				colored := func(v int) bool { return base.IsColored(v) }
				for _, act := range []struct {
					name   string
					active func(v int) bool
				}{{"all", nil}, {"subset", func(v int) bool { return v%4 != 0 }}, {"done", colored}} {
					what := fmt.Sprintf("%s/p=%v/rounds=%d/%s", rc.name, p, rounds, act.name)
					got, want := base.Clone(), base.Clone()
					cgGot, cgWant := testCG(t, rc.h), testCG(t, rc.h)
					optsGot := TryColorOptions{Phase: "loop", Active: act.active, Space: refSpaces(got, rc.h)["palette"], Activation: p}
					optsWant := optsGot
					optsWant.Space = refSpaces(want, rc.h)["palette"]
					rngGot, rngWant := graph.NewRand(uint64(9+ci)), graph.NewRand(uint64(9+ci))
					left, err := TryColorLoop(cgGot, got, optsGot, rounds, rngGot)
					if err != nil {
						t.Fatal(err)
					}
					wantLeft, err := refTryColorLoop(cgWant, want, optsWant, rounds, rngWant)
					if err != nil {
						t.Fatal(err)
					}
					if left != wantLeft {
						t.Fatalf("%s: left %d, reference %d", what, left, wantLeft)
					}
					sameColoring(t, what, got, want)
					if a, b := rngGot.Uint64(), rngWant.Uint64(); a != b {
						t.Fatalf("%s: next rng draw %#x, reference %#x", what, a, b)
					}
					if a, b := cgGot.Cost().Rounds(), cgWant.Cost().Rounds(); a != b {
						t.Fatalf("%s: charged %d rounds, reference %d", what, a, b)
					}
				}
			}
		}
	}
}

// TestTryColorRoundMatchesReferenceAcrossParallelism repeats one GNP
// comparison at several worker counts: the decide pass is parallel over the
// vertices that tried, and its chunking must not move a decision.
func TestTryColorRoundMatchesReferenceAcrossParallelism(t *testing.T) {
	h := graph.MustGNP(4000, 24.0/4000, graph.NewRand(41))
	want := precolor(t, h, 42)
	cgWant := testCG(t, h)
	if _, err := refTryColorLoop(cgWant, want, TryColorOptions{Phase: "par", Space: refSpaces(want, h)["full"], Activation: 0.7}, 5, graph.NewRand(43)); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		prev := parwork.SetParallelism(par)
		got := precolor(t, h, 42)
		_, err := TryColorLoop(testCG(t, h), got, TryColorOptions{Phase: "par", Space: refSpaces(got, h)["full"], Activation: 0.7}, 5, graph.NewRand(43))
		parwork.SetParallelism(prev)
		if err != nil {
			t.Fatal(err)
		}
		sameColoring(t, fmt.Sprintf("parallelism %d", par), got, want)
	}
}

// TestTryColorRoundRejectsOutOfRangeSpace: the state word holds a tried
// color as its negation, so a space color outside [1, Δ+1] is refused when
// it is drawn, before any vertex adopts anything, at both state widths, and
// the session is spent afterwards.
func TestTryColorRoundRejectsOutOfRangeSpace(t *testing.T) {
	h := graph.Path(4)
	for _, delta := range []int{2, 200} {
		maxColor := int32(delta + 1)
		for _, bad := range []int32{0, -2, maxColor + 1, 1 << 30} {
			cg := testCG(t, h)
			col := coloring.New(4, delta)
			space := []int32{bad}
			s := NewTryColorSession(cg, col, nil)
			_, err := s.Round(TryColorOptions{Phase: "range", Space: func(v int) []int32 { return space }, Activation: 1}, graph.NewRand(1))
			want := fmt.Sprintf("outside [1,%d]", maxColor)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Δ+1=%d, space color %d: err = %v, want an out-of-range error", maxColor, bad, err)
			}
			if col.DomSize() != 0 {
				t.Fatalf("Δ+1=%d, space color %d: %d vertices colored before the error", maxColor, bad, col.DomSize())
			}
			ok := []int32{1}
			if _, again := s.Round(TryColorOptions{Phase: "range", Space: func(v int) []int32 { return ok }, Activation: 1}, graph.NewRand(1)); again == nil || col.DomSize() != 0 {
				t.Fatalf("Δ+1=%d, space color %d: a spent session ran another round (err %v)", maxColor, bad, again)
			}
			if _, err := TryColorRound(cg, col, TryColorOptions{Phase: "range", Space: func(v int) []int32 { return space }}, graph.NewRand(1)); err == nil {
				t.Fatalf("space color %d accepted by TryColorRound", bad)
			}
		}
	}
}
