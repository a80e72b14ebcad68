package flood

import (
	"iter"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// ReceiptStore is an indexed collection of receipts sharing one PathArena
// and one Ident table. It replaces the flat receipt slice the algorithms
// used to scan linearly: step (b)'s "value along exactly this path" is an
// O(1) index lookup, and the disjoint-path predicates only visit receipts
// of the queried origins. Receipts keep their acceptance order, globally
// and within every index bucket, so scans over the store reproduce the
// flat-slice iteration order exactly.
type ReceiptStore struct {
	arena    *graph.PathArena
	ident    *Ident
	receipts []Receipt
	// bodyIDs caches the interned Receipt.Body identity per receipt,
	// resolved on first read: Add records a ValueBody's pre-reserved
	// identity outright and unresolvedBody for anything else, and BodyID
	// (or a Candidates call filtering on a body) interns the body only when
	// asked. Most structured receipts are never compared by content —
	// Algorithm 2 groups only the reports about non-neighbours — so they
	// never pay for an identity.
	bodyIDs []BodyID
	// byOrigin[u] indexes the receipts whose path starts at u.
	byOrigin [][]int32
	// byPath indexes receipts by their full path, slice-indexed by PathID
	// (IDs are dense arena offsets) in fixed-size pages allocated on first
	// touch: the span of a PathID is its first and last receipt, and
	// next[i] chains receipt i to the following receipt along the same path,
	// so indexing a receipt appends to next and at most touches a page —
	// no per-receipt bucket. Paging matters because arenas outlive stores:
	// a later phase's store — or any store of a batch's co-located instance
	// groups, which share one arena — records receipts over a narrow slice
	// of a large ID range, and pages keep its index proportional to what it
	// records (arena IDs are allocated in per-session contiguous runs, so
	// pages are rarely mixed). A path determines its origin (its first
	// node), so the PathID alone is the key.
	byPath []*pathPage
	next   []int32
	// sharedIdx marks a PlannedView: byOrigin, byPath and next belong to the
	// compile-time template and must never be mutated through this store.
	sharedIdx bool
}

// unresolvedBody marks a bodyIDs entry not yet interned (see BodyID). No
// Ident table ever issues it: real identities are non-negative.
const unresolvedBody BodyID = -1

// eagerBodyID returns the bodyIDs entry Add records for b: the
// pre-reserved identity of a ValueBody, unresolvedBody for anything else.
func eagerBodyID(b Body) BodyID {
	if vb, ok := b.(ValueBody); ok {
		return ValueKeyID(vb.Value)
	}
	return unresolvedBody
}

// pathSpan is one PathID's receipt chain: its first and last receipt
// indexes plus one (zero: no receipt along the path).
type pathSpan struct{ head, tail int32 }

// pathPage is one block of per-PathID receipt chains.
type pathPage [pathPageSize]pathSpan

// pathPageBits sizes the byPath pages (64 IDs per page).
const (
	pathPageBits = 6
	pathPageSize = 1 << pathPageBits
)

// NewReceiptStore returns an empty store over the given arena and identity
// table.
func NewReceiptStore(arena *graph.PathArena, ident *Ident) *ReceiptStore {
	return &ReceiptStore{
		arena:    arena,
		ident:    ident,
		byOrigin: make([][]int32, arena.Graph().N()),
	}
}

// Arena returns the store's path arena.
func (s *ReceiptStore) Arena() *graph.PathArena { return s.arena }

// Ident returns the store's identity table. Filter.Body values queried
// against this store must be interned in it.
func (s *ReceiptStore) Ident() *Ident { return s.ident }

// Reserve grows the store's backing slices to hold n receipts without
// further allocation. Callers that know the expected receipt volume (e.g.
// a later flooding phase over an arena populated by earlier ones) can
// preallocate the append targets of every Add.
func (s *ReceiptStore) Reserve(n int) {
	s.receipts = reserved(s.receipts, n)
	s.bodyIDs = reserved(s.bodyIDs, n)
	if !s.sharedIdx {
		s.next = reserved(s.next, n)
	}
}

// reserved returns xs with capacity for at least n elements.
func reserved[T any](xs []T, n int) []T {
	if cap(xs) < n {
		grown := make([]T, len(xs), n)
		copy(grown, xs)
		xs = grown
	}
	return xs
}

// Reset empties the store for reuse — the whole-store analogue of
// ResetPlanned, for stores that own their indexes (a Flooder recycled
// phase over phase, see Flooder.Recycle). The receipt, body and chain
// arrays and every byOrigin bucket are truncated in place, only the path
// spans the recorded receipts touched are cleared, and the byPath pages
// are kept: a recycled flooding session records the same structural
// receipt set as the last one, so every append lands in pre-grown
// capacity and the phase performs no index allocation at all. On a
// PlannedView the shared template indexes are left untouched (they are
// immutable and already describe every phase).
func (s *ReceiptStore) Reset() {
	if !s.sharedIdx {
		for _, r := range s.receipts {
			*s.span(r.PathID) = pathSpan{}
		}
		for i := range s.byOrigin {
			s.byOrigin[i] = s.byOrigin[i][:0]
		}
		s.next = s.next[:0]
	}
	s.receipts = s.receipts[:0]
	s.bodyIDs = s.bodyIDs[:0]
}

// Add appends a receipt. The receipt's PathID must be interned in the
// store's arena and its Origin must be the path's first node.
func (s *ReceiptStore) Add(r Receipt) {
	i := int32(len(s.receipts))
	s.receipts = append(s.receipts, r)
	s.bodyIDs = append(s.bodyIDs, eagerBodyID(r.Body))
	s.byOrigin[r.Origin] = append(s.byOrigin[r.Origin], i)
	s.next = append(s.next, 0)
	sp := s.span(r.PathID)
	if sp.head == 0 {
		sp.head = i + 1
	} else {
		s.next[sp.tail-1] = i + 1
	}
	sp.tail = i + 1
}

// span returns the chain span of path, allocating its page on first touch.
func (s *ReceiptStore) span(path graph.PathID) *pathSpan {
	p := int(path)
	pi := p >> pathPageBits
	for len(s.byPath) <= pi {
		s.byPath = append(s.byPath, nil)
	}
	pg := s.byPath[pi]
	if pg == nil {
		pg = new(pathPage)
		s.byPath[pi] = pg
	}
	return &pg[p&(pathPageSize-1)]
}

// Len returns the number of receipts.
func (s *ReceiptStore) Len() int { return len(s.receipts) }

// All returns the receipts in acceptance order. The slice is shared;
// callers must not modify it.
func (s *ReceiptStore) All() []Receipt { return s.receipts }

// BodyID returns the interned canonical body identity of receipt index i,
// interning the body in the store's Ident table on first read.
func (s *ReceiptStore) BodyID(i int) BodyID { return s.bodyID(int32(i)) }

// bodyID is BodyID for the query loops' int32 receipt indexes.
func (s *ReceiptStore) bodyID(i int32) BodyID {
	if id := s.bodyIDs[i]; id != unresolvedBody {
		return id
	}
	return s.resolve(i)
}

// resolve interns receipt i's body and records its identity. Only
// structured bodies are ever unresolved, and the stores holding them are
// per-node (a plan's shared templates hold value bodies only), so the
// write never reaches shared state.
func (s *ReceiptStore) resolve(i int32) BodyID {
	id := s.ident.BodyKeyID(s.receipts[i].Body)
	s.bodyIDs[i] = id
	return id
}

// BodyKey returns the canonical body identity string of receipt index i
// (the interned rendering — for traces and tests, not hot paths).
func (s *ReceiptStore) BodyKey(i int) string { return s.ident.KeyString(s.BodyID(i)) }

// Path materializes the receipt's full origin→receiver path. The returned
// slice is shared (see graph.PathArena.Path); callers must not modify it.
func (s *ReceiptStore) Path(r Receipt) graph.Path { return s.arena.Path(r.PathID) }

// PlannedView returns an empty store that shares this store's index
// structures (byOrigin, byPath, next) instead of building its own. It
// exists for plan replay: a replayed flooding session records exactly this
// store's receipts — same paths, same acceptance order, same index
// positions — with only the bodies substituted, so the completed
// template's indexes describe every phase's store verbatim and need not be
// rebuilt (or even touched) per phase. Receipts must be installed with
// AddPlanned, in full and in schedule order, before the view is queried;
// ResetPlanned recycles the view for the next phase. The template must not
// grow while views of it exist.
func (s *ReceiptStore) PlannedView(ident *Ident) *ReceiptStore {
	return &ReceiptStore{
		arena:     s.arena,
		ident:     ident,
		receipts:  make([]Receipt, 0, len(s.receipts)),
		bodyIDs:   make([]BodyID, 0, len(s.receipts)),
		byOrigin:  s.byOrigin,
		byPath:    s.byPath,
		next:      s.next,
		sharedIdx: true,
	}
}

// AddPlanned appends a receipt whose index entries already exist in the
// shared planned index (see PlannedView): only the receipt record and its
// body identity — pre-reserved for a ValueBody, resolved on first read
// otherwise — are written, nothing is indexed. A view whose receipts are
// all ValueBody (scalar value flooding) may carry a nil Ident — ValueBody
// identities are pre-reserved constants that never touch the table.
func (s *ReceiptStore) AddPlanned(r Receipt) {
	s.receipts = append(s.receipts, r)
	s.bodyIDs = append(s.bodyIDs, eagerBodyID(r.Body))
}

// ResetPlanned empties a planned view for the next phase, keeping its
// backing arrays (their capacity is exactly one session's receipts).
func (s *ReceiptStore) ResetPlanned() {
	s.receipts = s.receipts[:0]
	s.bodyIDs = s.bodyIDs[:0]
}

// FromOrigin iterates, in acceptance order and without copying, over the
// receipts whose provenance path starts at origin.
func (s *ReceiptStore) FromOrigin(origin graph.NodeID) iter.Seq[Receipt] {
	return func(yield func(Receipt) bool) {
		if int(origin) < 0 || int(origin) >= len(s.byOrigin) {
			return
		}
		for _, i := range s.byOrigin[origin] {
			if !yield(s.receipts[i]) {
				return
			}
		}
	}
}

// pathHead returns the first receipt recorded along exactly the given path,
// as its index plus one (zero for none); next continues the chain.
func (s *ReceiptStore) pathHead(path graph.PathID) int32 {
	p := int(path)
	if p < 0 {
		return 0
	}
	pi := p >> pathPageBits
	if pi >= len(s.byPath) || s.byPath[pi] == nil {
		return 0
	}
	return s.byPath[pi][p&(pathPageSize-1)].head
}

// ValueAt returns the binary value recorded along exactly the given path,
// if a ValueBody receipt exists for it — the step-(b) read "the value
// received along Puv". The path determines the origin (its first node).
// First acceptance wins, matching the scan order of the former flat slice.
func (s *ReceiptStore) ValueAt(path graph.PathID) (sim.Value, bool) {
	for i := s.pathHead(path); i != 0; i = s.next[i-1] {
		if v, ok := s.receipts[i-1].Value(); ok {
			return v, true
		}
	}
	return 0, false
}

// AtPath iterates, in acceptance order and without copying, over the
// receipts recorded along exactly the given path.
func (s *ReceiptStore) AtPath(path graph.PathID) iter.Seq[Receipt] {
	return func(yield func(Receipt) bool) {
		for i := s.pathHead(path); i != 0; i = s.next[i-1] {
			if !yield(s.receipts[i-1]) {
				return
			}
		}
	}
}
