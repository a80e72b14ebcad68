package flood

import (
	"slices"

	"lbcast/internal/graph"
)

// This file implements the disjoint-receipt queries the algorithms run over
// recorded receipts:
//
//   - step (c) of Algorithms 1/3: does node v hold receipts of value δ along
//     f+1 node-disjoint Avv-paths (disjoint except at v) that exclude F?
//   - Definition C.1 (Algorithm 2): did v receive a message identically
//     along f+1 internally-disjoint uv-paths?
//
// Both are exact set-packing searches by backtracking. Candidate counts are
// small in this library's regime (n ≤ ~16, f ≤ 4) and the searches are
// heavily pruned, so exact search is affordable; the existence guarantees
// are Lemma 5.5 / D.5 and Lemma C.2. Candidate filtering runs on the
// store's origin index and the arena's path bitmasks, and the pairwise
// disjointness tests inside the backtracking are O(1) mask intersections.

// DisjointMode selects the disjointness notion of Section 3.
type DisjointMode int

// The two path-disjointness notions.
const (
	// InternallyDisjoint: uv-paths sharing both endpoints but no internal
	// node ("Two uv-paths are node-disjoint if they do not have any
	// internal nodes in common").
	InternallyDisjoint DisjointMode = iota + 1
	// DisjointExceptLast: Uv-paths sharing only the final endpoint v
	// ("Two Uv-paths are node-disjoint if they do not have any nodes in
	// common except endpoint v").
	DisjointExceptLast
)

// pairwiseOK reports whether interned paths a and b are disjoint under mode.
func pairwiseOK(ar *graph.PathArena, mode DisjointMode, a, b graph.PathID) bool {
	switch mode {
	case InternallyDisjoint:
		return ar.InternallyDisjointIDs(a, b)
	case DisjointExceptLast:
		return ar.DisjointExceptLastIDs(a, b)
	default:
		return false
	}
}

// Filter describes which receipts are candidates for a disjoint query.
type Filter struct {
	// Origins restricts the receipt's path origin; the empty set means
	// any origin.
	Origins graph.Set
	// Body, when not AnyBody, requires the receipt's interned body
	// identity to match exactly ("received identically"). The ID must be
	// interned in the queried store's Ident table (flood.ValueKeyID values
	// are valid in every table).
	Body BodyID
	// Exclude requires the receipt path to exclude this set (no internal
	// node in the set); endpoints may be members. The empty set excludes
	// nothing.
	Exclude graph.Set
}

// QueryScratch holds the reusable buffers of the disjoint-receipt
// queries: the candidate output slice, and the backtracking selection's
// sorted copy and chosen stack. One scratch serves one protocol node —
// the queries of a phase end reuse its buffers instead of allocating per
// call. Results returned from scratch methods are valid until the next
// call on the same scratch method family (Candidates output until the
// next Candidates call, and so on). The zero value is ready to use; the
// package-level functions run on a fresh scratch.
//
// No query hashes or sorts per call in the common case. Candidates
// deduplicates through the store's own per-path receipt chains and reads
// several origin buckets in one acceptance-order pass, and SelectDisjoint
// sorts by path length only when its input has a length inversion — which
// only a forged out-of-schedule path produces.
type QueryScratch struct {
	out    []Receipt
	cs     []Receipt
	chosen []Receipt
}

// Candidates returns the store's receipts matching fil, deduplicated by
// path, in acceptance order; see the package-level Candidates. The
// returned slice is invalidated by the scratch's next Candidates call.
func (sc *QueryScratch) Candidates(st *ReceiptStore, fil Filter) []Receipt {
	sc.out = appendCandidates(sc.out[:0], st, fil)
	return sc.out
}

// SelectDisjoint reports whether k pairwise-disjoint (under mode)
// candidate paths exist, reusing the search buffers; see the package-level
// SelectDisjoint. On success the first k entries of sc.chosen are one
// selection.
func (sc *QueryScratch) SelectDisjoint(ar *graph.PathArena, candidates []Receipt, k int, mode DisjointMode) bool {
	if k <= 0 {
		return true
	}
	var found bool
	sc.cs, sc.chosen, found = selectDisjointInto(ar, candidates, k, mode, sc.cs[:0], sc.chosen[:0])
	return found
}

// ReceivedOnDisjointPaths is the scratch-backed form of the package-level
// ReceivedOnDisjointPaths predicate.
func (sc *QueryScratch) ReceivedOnDisjointPaths(st *ReceiptStore, fil Filter, k int, mode DisjointMode) bool {
	return sc.SelectDisjoint(st.Arena(), sc.Candidates(st, fil), k, mode)
}

// Candidates returns the store's receipts matching fil, deduplicated by
// path (the first accepted content for a path that passes the filter is
// the relevant one; rule (ii) already guarantees at most one content per
// (sender, slot, path)), in acceptance order. When fil.Origins is set,
// only the matching origin buckets are visited.
func Candidates(st *ReceiptStore, fil Filter) []Receipt {
	return new(QueryScratch).Candidates(st, fil)
}

// appendCandidates is the gather loop of QueryScratch.Candidates,
// appending matches into out.
//
// Dedup runs through the store's own per-path receipt chains. The origin
// and exclusion tests depend on the path alone (a path determines its
// origin and its interior), so of the receipts recorded along one path
// only the body test tells them apart: receipt i is a duplicate exactly
// when an earlier receipt on its path chain passes the body test — with
// no body filter, when i is not the chain's head. Value flooding records
// one receipt per path (rule (ii)), so the chain walk is a single head
// comparison.
//
// With an origin filter, a single matching origin bucket is walked
// directly. Several buckets — each in acceptance order — are read in one
// pass over the store's receipts between the lowest bucket head and the
// highest tail, testing each receipt's origin against the filter's set:
// the output order is that of a flat scan of the whole store, without
// sorting. (A head-by-head merge of
// the buckets gives the same order, but phase-end filters admit about
// half the origins, and round-major acceptance interleaves the buckets
// receipt by receipt, so the merge compares heads at every step and
// measured slower.)
func appendCandidates(out []Receipt, st *ReceiptStore, fil Filter) []Receipt {
	ar := st.Arena()
	visit := func(i int32) {
		if fil.Body != AnyBody && st.bodyID(i) != fil.Body {
			return
		}
		r := st.receipts[i]
		if !ar.ExcludesInternal(r.PathID, fil.Exclude) {
			return
		}
		if h := st.pathHead(r.PathID); h != i+1 {
			if fil.Body == AnyBody {
				return
			}
			for j := h; j != 0 && j <= i; j = st.next[j-1] {
				if st.bodyID(j-1) == fil.Body {
					return
				}
			}
		}
		out = append(out, r)
	}
	if fil.Origins == 0 {
		for i := range st.receipts {
			visit(int32(i))
		}
		return out
	}
	var one []int32
	buckets, lo, hi := 0, int32(len(st.receipts)), int32(-1)
	for o := range fil.Origins.All() {
		if int(o) >= len(st.byOrigin) || len(st.byOrigin[o]) == 0 {
			continue
		}
		one = st.byOrigin[o]
		buckets++
		lo, hi = min(lo, one[0]), max(hi, one[len(one)-1])
	}
	if buckets == 1 {
		for _, i := range one {
			visit(i)
		}
	} else {
		for i := lo; i <= hi; i++ {
			if fil.Origins.Contains(st.receipts[i].Origin) {
				visit(i)
			}
		}
	}
	return out
}

// SelectDisjoint searches for k pairwise-disjoint (under mode) receipt
// paths among candidates, whose PathIDs must live in ar. It returns one
// such selection, or nil if none exists. The search is exact: if nil is
// returned, no k disjoint candidates exist.
func SelectDisjoint(ar *graph.PathArena, candidates []Receipt, k int, mode DisjointMode) []Receipt {
	if k <= 0 {
		return []Receipt{}
	}
	var sc QueryScratch
	if !sc.SelectDisjoint(ar, candidates, k, mode) {
		return nil
	}
	return slices.Clone(sc.chosen[:k])
}

// selectDisjointInto is the backtracking core of SelectDisjoint, writing
// its working state into caller-provided buffers (grown as needed and
// returned for reuse). On success, the first k entries of the returned
// chosen buffer are one disjoint selection. k must be positive.
//
// Shorter paths conflict with fewer others, so the search tries them
// first: it runs over the candidates stably sorted by path length. A
// receipt accepted in flooding round r has r+1 nodes, so a store's
// acceptance order — and any filtered subsequence of it — is already
// length-sorted unless a faulty node injected an out-of-schedule path;
// one linear pass detects that case, and only then is the input copied
// and sorted. A stable sort of a sorted slice is the identity, so the
// search order, and the selection found, are the same either way.
func selectDisjointInto(ar *graph.PathArena, candidates []Receipt, k int, mode DisjointMode, csBuf, chosenBuf []Receipt) (sorted, chosen []Receipt, found bool) {
	if len(candidates) < k {
		return csBuf, chosenBuf, false
	}
	cs := candidates
	for i := 1; i < len(candidates); i++ {
		if ar.PathLen(candidates[i].PathID) < ar.PathLen(candidates[i-1].PathID) {
			csBuf = append(csBuf, candidates...)
			slices.SortStableFunc(csBuf, func(a, b Receipt) int { return ar.PathLen(a.PathID) - ar.PathLen(b.PathID) })
			cs = csBuf
			break
		}
	}

	chosen = chosenBuf
	var rec func(start int) bool
	rec = func(start int) bool {
		if len(chosen) == k {
			return true
		}
		// Prune: not enough candidates left.
		if len(cs)-start < k-len(chosen) {
			return false
		}
		for i := start; i < len(cs); i++ {
			ok := true
			for _, c := range chosen {
				if !pairwiseOK(ar, mode, c.PathID, cs[i].PathID) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			chosen = append(chosen, cs[i])
			if rec(i + 1) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
		}
		return false
	}
	found = rec(0)
	return csBuf, chosen, found
}

// ReceivedOnDisjointPaths reports whether the store contains k
// pairwise-disjoint paths (under mode) matching fil. This is the predicate
// of step (c) ("v receives value δ along any f+1 node-disjoint Avv-paths
// that exclude F") and of Definition C.1's third clause.
func ReceivedOnDisjointPaths(st *ReceiptStore, fil Filter, k int, mode DisjointMode) bool {
	return new(QueryScratch).ReceivedOnDisjointPaths(st, fil, k, mode)
}
