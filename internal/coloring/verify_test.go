package coloring

import (
	"fmt"
	"strings"
	"testing"

	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
)

// refVerifyProper and refVerifyComplete are the serial loops the parallel
// verify replaced, kept as its reference.
func refVerifyProper(g *graph.Graph, c *Coloring) error {
	for v := 0; v < g.N(); v++ {
		col := c.Get(v)
		if col == None {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if int(u) > v && c.Get(int(u)) == col {
				return fmt.Errorf("coloring: edge {%d,%d} monochromatic with color %d", v, u, col)
			}
		}
	}
	return nil
}

func refVerifyComplete(g *graph.Graph, c *Coloring) error {
	for v := 0; v < g.N(); v++ {
		col := c.Get(v)
		if col == None {
			return fmt.Errorf("coloring: vertex %d uncolored", v)
		}
		if col < 1 || col > c.MaxColor() {
			return fmt.Errorf("coloring: vertex %d has color %d outside [1,%d]", v, col, c.MaxColor())
		}
	}
	return refVerifyProper(g, c)
}

// greedy returns the proper total first-fit coloring of g.
func greedy(t *testing.T, g *graph.Graph) *Coloring {
	t.Helper()
	c := New(g.N(), g.MaxDegree())
	sc := NewPaletteScratch()
	for v := 0; v < g.N(); v++ {
		if err := c.Set(v, sc.Palette(g, c, v)[0]); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// mono makes the edge from v to its k-th neighbor monochromatic by copying
// v's color onto the neighbor, and returns the neighbor.
func mono(g *graph.Graph, c *Coloring, v, k int) int {
	u := int(g.Neighbors(v)[k])
	c.colors[u] = c.colors[v]
	return u
}

// TestVerifyMatchesSerialReference plants several violations in different
// chunks of a 20000-vertex coloring (an uncolored vertex above a
// monochromatic edge, out-of-range colors, two monochromatic edges, two
// monochromatic edges at one vertex, two in one chunk) and checks that the
// parallel VerifyComplete and VerifyProper return exactly the error the
// serial loops return, at every worker count.
func TestVerifyMatchesSerialReference(t *testing.T) {
	g := graph.MustGNP(20000, 12.0/20000, graph.NewRand(5))
	base := greedy(t, g)
	n := g.N()
	cases := map[string]func(c *Coloring){
		"proper": func(c *Coloring) {},
		"uncolored above monochromatic": func(c *Coloring) {
			mono(g, c, n/10, 0)
			c.colors[n-7] = None
		},
		"out of range above and below": func(c *Coloring) {
			mono(g, c, 300, 0)
			c.colors[n/2] = c.MaxColor() + 3
			c.colors[n/2+4000] = None
			c.colors[n-1] = -2
		},
		"negative color first": func(c *Coloring) {
			c.colors[n/3] = -1
			c.colors[n/3+1] = None
		},
		"two monochromatic edges": func(c *Coloring) {
			mono(g, c, n-50, 0)
			mono(g, c, n/4, 0)
		},
		"monochromatic twice at one vertex": func(c *Coloring) {
			v := n / 5
			for len(g.Neighbors(v)) < 2 {
				v++
			}
			mono(g, c, v, len(g.Neighbors(v))-1)
			mono(g, c, v, len(g.Neighbors(v))-2)
		},
		"uncolored endpoint only": func(c *Coloring) {
			c.colors[0] = None
			c.colors[n-1] = None
		},
	}
	checkPlants(t, g, base, cases)

	// On a path colored 1, 2, 3, 1, 2, 3, … copying a vertex's color onto
	// its right neighbor makes exactly one edge monochromatic, so several
	// can sit in one chunk at known lower endpoints.
	path := graph.Path(n)
	cyclic := New(n, 2)
	for v := 0; v < n; v++ {
		cyclic.colors[v] = int32(v%3 + 1)
	}
	right := func(c *Coloring, v int) { c.colors[v+1] = c.colors[v] }
	checkPlants(t, path, cyclic, map[string]func(c *Coloring){
		"proper path": func(c *Coloring) {},
		"two monochromatic edges in one chunk": func(c *Coloring) {
			right(c, n/2+3)
			right(c, n/2+9)
		},
		"uncolored after monochromatic edges in one chunk": func(c *Coloring) {
			right(c, n/2+3)
			right(c, n/2+9)
			c.colors[n/2+20] = None
			c.colors[n/2+30] = None
		},
	})
}

// checkPlants applies each plant to a copy of base and compares the parallel
// verify with the serial reference at worker counts 1, 2 and 4.
func checkPlants(t *testing.T, g *graph.Graph, base *Coloring, plants map[string]func(c *Coloring)) {
	t.Helper()
	for name, plant := range plants {
		c := base.Clone()
		plant(c)
		wantComplete, wantProper := refVerifyComplete(g, c), refVerifyProper(g, c)
		if !strings.HasPrefix(name, "proper") && wantComplete == nil {
			t.Fatalf("%s: the plant left no violation", name)
		}
		for _, par := range []int{1, 2, 4} {
			prev := parwork.SetParallelism(par)
			gotComplete, gotProper := VerifyComplete(g, c), VerifyProper(g, c)
			parwork.SetParallelism(prev)
			if fmt.Sprint(gotComplete) != fmt.Sprint(wantComplete) {
				t.Errorf("%s, parallelism %d: VerifyComplete = %v, serial %v", name, par, gotComplete, wantComplete)
			}
			if fmt.Sprint(gotProper) != fmt.Sprint(wantProper) {
				t.Errorf("%s, parallelism %d: VerifyProper = %v, serial %v", name, par, gotProper, wantProper)
			}
		}
	}
}

// TestVerifyEmptyAndTiny covers graphs with fewer vertices than chunks,
// down to none.
func TestVerifyEmptyAndTiny(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5} {
		g := graph.Path(n)
		c := New(n, g.MaxDegree())
		if got, want := fmt.Sprint(VerifyComplete(g, c)), fmt.Sprint(refVerifyComplete(g, c)); got != want {
			t.Errorf("n=%d uncolored: VerifyComplete = %s, serial %s", n, got, want)
		}
		for v := 0; v < n; v++ {
			c.colors[v] = 1
		}
		if got, want := fmt.Sprint(VerifyComplete(g, c)), fmt.Sprint(refVerifyComplete(g, c)); got != want {
			t.Errorf("n=%d all color 1: VerifyComplete = %s, serial %s", n, got, want)
		}
		if got, want := fmt.Sprint(VerifyProper(g, c)), fmt.Sprint(refVerifyProper(g, c)); got != want {
			t.Errorf("n=%d all color 1: VerifyProper = %s, serial %s", n, got, want)
		}
	}
}

// TestVerifyMatchesReferenceAtByteWidth compares VerifyComplete and
// VerifyProper with the serial references on colorings sized to Δ+1 = 127,
// where a coloring whose colors all lie in [0, Δ+1] is checked against a
// one-byte copy, and Δ+1 = 128, where it never is. The plants include
// colors that alias in a byte: 300 and 44 are equal in their low byte, so
// an edge between them is reported only if the check wrongly narrowed an
// out-of-range coloring.
func TestVerifyMatchesReferenceAtByteWidth(t *testing.T) {
	g := graph.MustGNP(6000, 30.0/6000, graph.NewRand(9))
	for _, delta := range []int{126, 127} {
		if g.MaxDegree() > delta {
			t.Fatalf("Δ(G) = %d exceeds the coloring's Δ %d", g.MaxDegree(), delta)
		}
		base := New(g.N(), delta)
		sc := NewPaletteScratch()
		for v := 0; v < g.N(); v++ {
			// Spread colors over the whole space, top colors included.
			pal := sc.Palette(g, base, v)
			base.colors[v] = pal[(v*7)%len(pal)]
		}
		// alias colors v and its first neighbor 300 and 44, and moves the
		// neighbor's other neighbors off 44.
		alias := func(c *Coloring, v int) {
			u := int(g.Neighbors(v)[0])
			c.colors[v], c.colors[u] = 300, 44
			for _, w := range g.Neighbors(u) {
				if c.colors[w] == 44 && int(w) != v {
					c.colors[w] = 45
				}
			}
		}
		checkPlants(t, g, base, map[string]func(c *Coloring){
			fmt.Sprintf("proper Δ+1=%d", delta+1): func(c *Coloring) {},
			fmt.Sprintf("top color monochromatic Δ+1=%d", delta+1): func(c *Coloring) {
				v := g.N() / 3
				c.colors[v] = c.MaxColor()
				mono(g, c, v, 0)
			},
			fmt.Sprintf("aliasing colors only Δ+1=%d", delta+1): func(c *Coloring) {
				alias(c, g.N()/4)
			},
			fmt.Sprintf("aliasing colors below a monochromatic edge Δ+1=%d", delta+1): func(c *Coloring) {
				alias(c, g.N()/4)
				mono(g, c, g.N()/2, 0)
			},
			fmt.Sprintf("aliasing colors just below a monochromatic edge Δ+1=%d", delta+1): func(c *Coloring) {
				// At 6000 vertices every chunk spans ≥ 40, and n/4 starts
				// one, so the edge's lower end shares the aliasing chunk.
				v := g.N() / 4
				alias(c, v)
				mono(g, c, v+3, len(g.Neighbors(v+3))-1)
			},
			fmt.Sprintf("negative color and a monochromatic edge Δ+1=%d", delta+1): func(c *Coloring) {
				// Outside [0, Δ+1]: the edges are checked in int32.
				c.colors[g.N()-3] = -84
				mono(g, c, g.N()/2, 0)
			},
		})
	}
}
