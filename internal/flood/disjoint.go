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
	// Origins restricts the receipt's path origin; nil means any.
	Origins graph.Set
	// Body, when not AnyBody, requires the receipt's interned body
	// identity to match exactly ("received identically"). The ID must be
	// interned in the queried store's Ident table (flood.ValueKeyID values
	// are valid in every table).
	Body BodyID
	// Exclude requires the receipt path to exclude this set (no internal
	// node in the set); endpoints may be members.
	Exclude graph.Set
}

// QueryScratch holds the reusable buffers of the disjoint-receipt
// queries: the candidate gather (dedup map, output slice, origin-bucket
// merge) and the backtracking selection (sorted copy, chosen stack). One
// scratch serves one protocol node — the queries of a phase end reuse its
// buffers instead of allocating per call. Results returned from scratch
// methods are valid until the next call on the same scratch method family
// (Candidates output until the next Candidates call, and so on). The zero
// value is ready to use; a nil *QueryScratch falls back to per-call
// allocation, reproducing the package-level functions exactly.
type QueryScratch struct {
	seen   map[graph.PathID]struct{}
	out    []Receipt
	idxs   []int32
	cs     []Receipt
	chosen []Receipt
}

// Candidates is the scratch-backed form of the package-level Candidates:
// same receipts, same order, buffers reused. The returned slice is
// invalidated by the scratch's next Candidates call.
func (sc *QueryScratch) Candidates(st *ReceiptStore, fil Filter) []Receipt {
	if sc == nil {
		return Candidates(st, fil)
	}
	if sc.seen == nil {
		sc.seen = make(map[graph.PathID]struct{})
	} else {
		clear(sc.seen)
	}
	sc.out = appendCandidates(sc.out[:0], st, fil, sc.seen, &sc.idxs)
	return sc.out
}

// SelectDisjoint is the scratch-backed existence form of the package-level
// SelectDisjoint: it reports whether k pairwise-disjoint candidate paths
// exist, reusing the search buffers and returning no selection.
func (sc *QueryScratch) SelectDisjoint(ar *graph.PathArena, candidates []Receipt, k int, mode DisjointMode) bool {
	if k <= 0 {
		return true
	}
	if sc == nil {
		return SelectDisjoint(ar, candidates, k, mode) != nil
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
// path (the first accepted content for a path is the relevant one; rule
// (ii) already guarantees at most one content per (sender, slot, path)).
// When fil.Origins is set, only the matching origin buckets are visited.
func Candidates(st *ReceiptStore, fil Filter) []Receipt {
	return appendCandidates(nil, st, fil, make(map[graph.PathID]struct{}), new([]int32))
}

// appendCandidates is the shared gather loop of Candidates and
// QueryScratch.Candidates, appending matches into out with caller-owned
// dedup and index-merge buffers.
func appendCandidates(out []Receipt, st *ReceiptStore, fil Filter, seen map[graph.PathID]struct{}, idxsBuf *[]int32) []Receipt {
	ar := st.Arena()
	useMask := ar.Exact() && fil.Exclude.Len() > 0
	var exclMask uint64
	if useMask {
		exclMask = graph.SetMask(fil.Exclude)
	}
	visit := func(i int32) {
		r := st.receipts[i]
		if fil.Body != AnyBody {
			id := st.bodyIDs[i]
			if id == unresolvedBody {
				id = st.resolve(i)
			}
			if id != fil.Body {
				return
			}
		}
		if useMask {
			if !ar.ExcludesInternalMask(r.PathID, exclMask) {
				return
			}
		} else if fil.Exclude != nil && !ar.ExcludesInternal(r.PathID, fil.Exclude) {
			return
		}
		if _, dup := seen[r.PathID]; dup {
			return
		}
		seen[r.PathID] = struct{}{}
		out = append(out, r)
	}
	if fil.Origins != nil {
		if fil.Origins.Len() == 1 {
			// Singleton origin filter — the checkUnanimity hot case. Pick
			// the one bucket straight off the map; Origins.Slice() would
			// allocate (and sort) a one-element slice per query.
			for o := range fil.Origins {
				if int(o) >= 0 && int(o) < len(st.byOrigin) {
					for _, i := range st.byOrigin[o] {
						visit(i)
					}
				}
			}
			return out
		}
		// Gather the matching origin buckets and merge them back into
		// global acceptance order, so the output order is identical to
		// the pre-index flat-slice scan. A single bucket (the common
		// query) is already in acceptance order.
		var buckets [][]int32
		for _, o := range fil.Origins.Slice() {
			if int(o) < 0 || int(o) >= len(st.byOrigin) || len(st.byOrigin[o]) == 0 {
				continue
			}
			buckets = append(buckets, st.byOrigin[o])
		}
		if len(buckets) == 1 {
			for _, i := range buckets[0] {
				visit(i)
			}
			return out
		}
		idxs := (*idxsBuf)[:0]
		for _, b := range buckets {
			idxs = append(idxs, b...)
		}
		slices.Sort(idxs)
		*idxsBuf = idxs
		for _, i := range idxs {
			visit(i)
		}
		return out
	}
	for i := range st.receipts {
		visit(int32(i))
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
	_, chosen, found := selectDisjointInto(ar, candidates, k, mode, nil, nil)
	if !found {
		return nil
	}
	out := make([]Receipt, k)
	copy(out, chosen)
	return out
}

// selectDisjointInto is the backtracking core of SelectDisjoint, writing
// its working state into caller-provided buffers (grown as needed and
// returned for reuse). On success, the first k entries of the returned
// chosen buffer are one disjoint selection. k must be positive.
func selectDisjointInto(ar *graph.PathArena, candidates []Receipt, k int, mode DisjointMode, csBuf, chosenBuf []Receipt) (cs, chosen []Receipt, found bool) {
	if len(candidates) < k {
		return csBuf, chosenBuf, false
	}
	// Shorter paths conflict with fewer others; trying them first shrinks
	// the search tree.
	cs = append(csBuf, candidates...)
	slices.SortStableFunc(cs, func(a, b Receipt) int { return ar.PathLen(a.PathID) - ar.PathLen(b.PathID) })

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
	return cs, chosen, rec(0)
}

// ReceivedOnDisjointPaths reports whether the store contains k
// pairwise-disjoint paths (under mode) matching fil. This is the predicate
// of step (c) ("v receives value δ along any f+1 node-disjoint Avv-paths
// that exclude F") and of Definition C.1's third clause.
func ReceivedOnDisjointPaths(st *ReceiptStore, fil Filter, k int, mode DisjointMode) bool {
	return SelectDisjoint(st.Arena(), Candidates(st, fil), k, mode) != nil
}
