package core

import (
	"slices"

	"lbcast/internal/flood"
	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// laneShare runs the per-lane disjoint-path searches of one phase-end
// query — step (c) over the exclusion-filtered receipts, or the
// early-decision certificate over one origin's receipts — picking its
// strategy from the node's lane count.
//
// A one-lane node floods value bodies, so its lane's match list is the
// store's own body-filtered candidate list: each search is the lane's
// filtered flood.QueryScratch.ReceivedOnDisjointPaths query, with no
// grouping and no memo.
//
// With two or more lanes it runs one search per distinct lane match list
// instead of one per lane. The candidates are gathered once, value-blind;
// a lane's match list is the subsequence whose origin the lane admits and
// whose lane value equals the lane's target. Candidates are grouped by
// (origin, VectorBody backing array): a VectorBody is immutable and
// forwarded by reference, so every candidate of a group has the same
// origin and the same value in every lane. A lane's signature is the set
// of groups it admits, and its match list is exactly the candidates of
// those groups, in candidate order — so lanes with equal signatures have
// identical match lists and share one SelectDisjoint result, memoized
// until the next query. Benign flooding forwards each origin's body
// unchanged, so a phase end usually has one group per origin and its lanes
// collapse to a few searches. Signatures are bitsets of any width.
type laneShare struct {
	// st and base are the current query's store and value-blind filter;
	// one selects the one-lane strategy.
	st   *flood.ReceiptStore
	base flood.Filter
	one  bool

	cands []flood.Receipt
	// groupOf[i] is candidate i's group, or -1 when no lane can match it
	// (not a VectorBody, or an empty one).
	groupOf []int32
	groups  []laneGroup
	// firstOf[o] heads origin o's chain of groups (index plus one).
	firstOf []int32
	// words is the signature width in uint64 words; sig is the signature
	// being built.
	words int
	sig   []uint64
	// The memo: memoSigs holds the searched signatures (words apiece) and
	// memo their results; byHash maps a signature hash to its most recent
	// entry plus one.
	byHash   map[uint64]int32
	memoSigs []uint64
	memo     []laneMemo
	match    []flood.Receipt
}

// laneGroup is one (origin, VectorBody backing array) group.
type laneGroup struct {
	origin graph.NodeID
	next   int32 // the origin's next group, plus one
	vals   []sim.Value
}

// laneMemo is one searched signature's result.
type laneMemo struct {
	found bool
	next  int32 // the previous entry with the same hash, plus one
}

// query opens one phase-end query over the receipts of st matching base,
// a value-blind filter, for a node of the given lane count; n is the
// graph's node count. With two or more lanes it gathers and groups the
// candidates.
func (ls *laneShare) query(sc *flood.QueryScratch, st *flood.ReceiptStore, base flood.Filter, lanes, n int) {
	ls.st, ls.base, ls.one = st, base, lanes == 1
	if !ls.one {
		ls.group(sc.Candidates(st, base), n)
	}
}

// holds reports whether lane l received want along k paths pairwise
// disjoint under mode among the query's receipts. A non-empty admit
// restricts the origins; it is only passed to a query whose base filter
// admits every origin.
func (ls *laneShare) holds(sc *flood.QueryScratch, l int, want sim.Value, admit graph.Set, k int, mode flood.DisjointMode) bool {
	if ls.one {
		fil := ls.base
		if admit != 0 {
			fil.Origins = admit
		}
		fil.Body = flood.ValueKeyID(want)
		return sc.ReceivedOnDisjointPaths(ls.st, fil, k, mode)
	}
	ls.signature(l, want, admit)
	return ls.search(sc, ls.st.Arena(), k, mode)
}

// group assigns the candidates of one query to their groups and empties
// the memo. cands must stay unchanged until the next group call; n is the
// graph's node count. The buffers are sized on first use from the
// candidate and node counts, which recur phase over phase.
func (ls *laneShare) group(cands []flood.Receipt, n int) {
	ls.cands = cands
	if cap(ls.groupOf) < len(cands) {
		ls.groupOf = make([]int32, len(cands))
		ls.match = make([]flood.Receipt, 0, len(cands))
	}
	ls.groupOf = ls.groupOf[:len(cands)]
	if cap(ls.firstOf) < n {
		ls.firstOf = make([]int32, n)
		ls.groups = make([]laneGroup, 0, n)
	}
	ls.firstOf = ls.firstOf[:n]
	clear(ls.firstOf)
	clear(ls.groups)
	ls.groups = ls.groups[:0]
	for i, r := range cands {
		vb, ok := r.Body.(VectorBody)
		if !ok || len(vb.Values) == 0 {
			ls.groupOf[i] = -1
			continue
		}
		g := ls.firstOf[r.Origin] - 1
		for g >= 0 && (&ls.groups[g].vals[0] != &vb.Values[0] || len(ls.groups[g].vals) != len(vb.Values)) {
			g = ls.groups[g].next - 1
		}
		if g < 0 {
			g = int32(len(ls.groups))
			ls.groups = append(ls.groups, laneGroup{origin: r.Origin, next: ls.firstOf[r.Origin], vals: vb.Values})
			ls.firstOf[r.Origin] = g + 1
		}
		ls.groupOf[i] = g
	}
	ls.words = (len(ls.groups) + 63) / 64
	if ls.byHash == nil {
		ls.byHash = make(map[uint64]int32)
	} else {
		clear(ls.byHash)
	}
	ls.memoSigs = ls.memoSigs[:0]
	ls.memo = ls.memo[:0]
}

// signature builds lane l's signature: the groups whose lane-l value is
// want and, when admit is not empty, whose origin is in admit.
func (ls *laneShare) signature(l int, want sim.Value, admit graph.Set) {
	if cap(ls.sig) < ls.words {
		ls.sig = make([]uint64, ls.words)
	}
	ls.sig = ls.sig[:ls.words]
	clear(ls.sig)
	for g := range ls.groups {
		grp := &ls.groups[g]
		if l < len(grp.vals) && grp.vals[l] == want && (admit == 0 || admit.Contains(grp.origin)) {
			ls.sig[g>>6] |= 1 << (g & 63)
		}
	}
}

// search reports whether the current signature's match list holds k
// pairwise-disjoint (under mode) paths, searching only for a signature
// not seen since the last group call.
func (ls *laneShare) search(sc *flood.QueryScratch, ar *graph.PathArena, k int, mode flood.DisjointMode) bool {
	h := uint64(14695981039346656037) // FNV-1a over the signature words
	for _, w := range ls.sig {
		h = (h ^ w) * 1099511628211
	}
	for e := ls.byHash[h]; e != 0; e = ls.memo[e-1].next {
		if slices.Equal(ls.memoSigs[int(e-1)*ls.words:int(e)*ls.words], ls.sig) {
			return ls.memo[e-1].found
		}
	}
	match := ls.match[:0]
	for i, r := range ls.cands {
		if g := ls.groupOf[i]; g >= 0 && ls.sig[g>>6]&(1<<(g&63)) != 0 {
			match = append(match, r)
		}
	}
	ls.match = match
	found := sc.SelectDisjoint(ar, match, k, mode)
	ls.memoSigs = append(ls.memoSigs, ls.sig...)
	ls.memo = append(ls.memo, laneMemo{found: found, next: ls.byHash[h]})
	ls.byHash[h] = int32(len(ls.memo))
	return found
}
