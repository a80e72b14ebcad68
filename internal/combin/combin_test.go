package combin

import (
	"math"
	"math/big"
	"testing"

	"lbcast/internal/graph"
)

func nodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

func TestCombinationsCount(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{5, 0, 1}, {5, 1, 5}, {5, 2, 10}, {5, 5, 1}, {5, 6, 0}, {5, -1, 0},
	}
	for _, tc := range cases {
		count := 0
		Combinations(nodes(tc.n), tc.k, func(c []graph.NodeID) bool {
			if len(c) != tc.k {
				t.Fatalf("combination size %d, want %d", len(c), tc.k)
			}
			count++
			return true
		})
		if count != tc.want {
			t.Errorf("C(%d,%d) enumerated %d, want %d", tc.n, tc.k, count, tc.want)
		}
	}
}

func TestCombinationsLexOrderAndEarlyStop(t *testing.T) {
	var got [][]graph.NodeID
	Combinations(nodes(4), 2, func(c []graph.NodeID) bool {
		cp := make([]graph.NodeID, len(c))
		copy(cp, c)
		got = append(got, cp)
		return len(got) < 3
	})
	if len(got) != 3 {
		t.Fatalf("early stop failed: %v", got)
	}
	want := [][]graph.NodeID{{0, 1}, {0, 2}, {0, 3}}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("order: got %v want %v", got, want)
		}
	}
}

func TestSubsetsUpTo(t *testing.T) {
	count := 0
	sizes := make(map[int]int)
	SubsetsUpTo(nodes(5), 2, func(s graph.Set) bool {
		count++
		sizes[s.Len()]++
		return true
	})
	// 1 + 5 + 10 = 16
	if count != 16 {
		t.Fatalf("count = %d, want 16", count)
	}
	if sizes[0] != 1 || sizes[1] != 5 || sizes[2] != 10 {
		t.Fatalf("sizes = %v", sizes)
	}
	// Empty set comes first (sizes ascending).
	first := true
	SubsetsUpTo(nodes(3), 3, func(s graph.Set) bool {
		if first && s.Len() != 0 {
			t.Fatal("first subset not empty")
		}
		first = false
		return true
	})
}

func TestCountSubsetsUpTo(t *testing.T) {
	if got := CountSubsetsUpTo(5, 2); got.Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("count = %v", got)
	}
	if got := CountSubsetsUpTo(10, 3); got.Cmp(big.NewInt(1+10+45+120)) != 0 {
		t.Fatalf("count = %v", got)
	}
	// Enumeration matches the closed form.
	n, f := 7, 3
	enum := 0
	SubsetsUpTo(nodes(n), f, func(graph.Set) bool { enum++; return true })
	if int64(enum) != CountSubsetsUpTo(n, f).Int64() {
		t.Fatalf("enumeration %d != formula %v", enum, CountSubsetsUpTo(n, f))
	}
}

func TestFTPairs(t *testing.T) {
	count := 0
	FTPairs(nodes(4), 2, 1, func(fSet, tSet graph.Set) bool {
		if tSet.Len() > 1 {
			t.Fatalf("|T| = %d > t", tSet.Len())
		}
		if fSet.Len() > 2-tSet.Len() {
			t.Fatalf("|F| = %d > f-|T|", fSet.Len())
		}
		if fSet.Intersect(tSet).Len() != 0 {
			t.Fatal("F and T overlap")
		}
		count++
		return true
	})
	if int64(count) != CountFTPairs(4, 2, 1).Int64() {
		t.Fatalf("enumerated %d, formula %v", count, CountFTPairs(4, 2, 1))
	}
}

func TestFTPairsT0MatchesSubsets(t *testing.T) {
	// With t = 0, Algorithm 3's phases reduce to Algorithm 1's.
	a, b := 0, 0
	FTPairs(nodes(6), 2, 0, func(fSet, tSet graph.Set) bool {
		if tSet.Len() != 0 {
			t.Fatal("t=0 produced non-empty T")
		}
		a++
		return true
	})
	SubsetsUpTo(nodes(6), 2, func(graph.Set) bool { b++; return true })
	if a != b {
		t.Fatalf("FTPairs(t=0) = %d, SubsetsUpTo = %d", a, b)
	}
}

func TestEarlyStopSubsetsAndPairs(t *testing.T) {
	count := 0
	SubsetsUpTo(nodes(6), 3, func(graph.Set) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop: %d", count)
	}
	count = 0
	FTPairs(nodes(6), 2, 1, func(_, _ graph.Set) bool {
		count++
		return count < 4
	})
	if count != 4 {
		t.Fatalf("pair early stop: %d", count)
	}
}

// TestSubsetCountMatchesBig pins the machine-integer counts to the exact
// big.Int ones on every graph size an arena admits, and their saturation
// where the exact count does not fit.
func TestSubsetCountMatchesBig(t *testing.T) {
	limit := big.NewInt(math.MaxInt64)
	want := func(x *big.Int) int {
		if x.Cmp(limit) > 0 {
			return math.MaxInt
		}
		return int(x.Int64())
	}
	for n := 0; n <= graph.MaxNodes; n++ {
		for f := -1; f <= n+1; f++ {
			if got, w := SubsetCount(n, f), want(CountSubsetsUpTo(n, f)); got != w {
				t.Fatalf("SubsetCount(%d, %d) = %d, want %d", n, f, got, w)
			}
			for tt := 0; tt <= min(f, 3); tt++ {
				if got, w := FTPairCount(n, f, tt), want(CountFTPairs(n, f, tt)); got != w {
					t.Fatalf("FTPairCount(%d, %d, %d) = %d, want %d", n, f, tt, got, w)
				}
			}
		}
	}
}
