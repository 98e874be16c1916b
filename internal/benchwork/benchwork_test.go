package benchwork

import "testing"

// TestPaletteOpCasesAllocs pins the allocation contract PaletteOpCases
// documents: every scratch-backed case allocates nothing per op, and the
// package-level Palette exactly once (its caller-owned result).
// testing.AllocsPerRun warms each case up before counting, so
// CliquePaletteRebuild's first build, which sizes its buffers, is not
// counted.
func TestPaletteOpCasesAllocs(t *testing.T) {
	g, col, err := PaletteOpsFixture(2_000)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := PaletteOpCases(g, col)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 7 {
		t.Fatalf("got %d palette cases, want 7", len(cases))
	}
	for _, c := range cases {
		want := 0.0
		if c.Name == "Palette" {
			want = 1
		}
		i := 0
		got := testing.AllocsPerRun(200, func() {
			c.Op(i)
			i++
		})
		if got != want {
			t.Errorf("%s: %v allocs/op, want %v", c.Name, got, want)
		}
	}
}

func TestBatteryCrossSection(t *testing.T) {
	for i, run := range BatteryCrossSection(5) {
		tbl, err := run()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("job %d (%s): empty table", i, tbl.ID)
		}
	}
}
