package gen

import "testing"

func TestParseSpecValid(t *testing.T) {
	cases := []struct {
		spec string
		n, m int
	}{
		{"cycle:5", 5, 5},
		{"complete:4", 4, 6},
		{"circulant:8:1,2", 8, 16},
		{"harary:3:6", 6, 9},
		{"wheel:5", 5, 8},
		{"hypercube:3", 8, 12},
		{"bipartite:2:3", 5, 6},
		{"figure1a", 5, 5},
		{"figure1b", 8, 16},
		{"petersen", 10, 15},
		{"edges:3:0-1,1-2", 3, 2},
		{"edges:3:", 3, 0},
	}
	for _, tc := range cases {
		g, err := ParseSpec(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if g.N() != tc.n || g.M() != tc.m {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d", tc.spec, g.N(), g.M(), tc.n, tc.m)
		}
	}
	if g, err := ParseSpec("random:8:40:3"); err != nil || !g.Connected() {
		t.Fatalf("random spec: %v", err)
	}
}

func TestParseSpecInvalid(t *testing.T) {
	bad := []string{
		"", "nope", "cycle", "cycle:x", "circulant:8", "circulant:8:a",
		"edges:3:0-9", "edges:3:0_1", "edges:3:0-a", "harary:3",
		// More nodes than a node set holds.
		"cycle:65", "complete:1000000", "edges:65:0-1", "bipartite:40:40", "hypercube:7",
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	if g, err := ParseSpec("cycle:64"); err != nil || g.N() != 64 {
		t.Errorf("cycle:64: %v", err)
	}
}
