package graph

import (
	"fmt"
	"strconv"
)

// This file implements the compact path-identity layer: a PathArena interns
// simple paths of one graph with prefix sharing, so that every distinct path
// has exactly one stable integer PathID and extending a known path by one
// node is an O(1) map lookup (or append). The flooding machinery generates
// one message per simple path — exponential in n — and keying dedup maps and
// receipt indexes by PathID instead of formatted strings removes both the
// string building and the hashing of long keys from the hot path.
//
// Every interned entry is, by construction, a valid simple path of the
// arena's graph: Root and Extend validate membership, adjacency, and
// node-repetition before interning, and Intern walks a candidate path
// through them. Queries (Contains, ExcludesInternal, disjointness) run on
// each entry's node set, one word (graphs have at most MaxNodes nodes).
//
// A PathArena is NOT safe for concurrent use while it is being grown; each
// protocol node owns one arena for its whole run (all flooding phases),
// which also makes PathIDs stable across phases. A FROZEN arena (Freeze) is
// the exception: freezing pre-materializes every lazy per-entry cache and
// turns all further operations into pure reads, after which the arena is
// safe for any number of concurrent readers — this is what lets one
// compiled propagation plan share its arena across every node of a run and
// across parallel Monte Carlo trials.

// PathID is the stable integer identity of an interned path.
type PathID int32

// NoPath is the sentinel for "no such path": failed interning, an empty
// path, or the parent of a single-node path.
const NoPath PathID = -1

// pathEntry is one interned path: its last node plus the PathID of the
// prefix without that node. Child entries of a parent are kept on an
// intrusive linked list (firstChild/nextSib): per-parent fan-out is
// bounded by the node degree, so a short scan beats hashing a map key.
// The entry holds only what Extend, Contains and the mask queries read —
// 32 bytes, two to a cache line; the materialized path and key rendering
// live in the parallel full/keys slices.
type pathEntry struct {
	parent     PathID
	firstChild PathID
	nextSib    PathID
	node       int32 // NodeID of the last node
	origin     int32 // NodeID of the first node
	length     int32
	mask       Set // the path's nodes
}

// childRef is one entry of a frozen arena's child index: the child path
// id·node of some parent id.
type childRef struct {
	node int32
	id   PathID
}

// PathArena interns simple paths of one graph with prefix sharing.
type PathArena struct {
	g       *Graph
	entries []pathEntry
	// full[id] is the lazily-built materialized path of entry id (nil, or
	// beyond the slice, until first asked for), shared by every Path call.
	// Path values are immutable by convention throughout the module
	// (sim.Payload contract), so sharing is safe — and because the slice
	// is handed out but never rebuilt, "p is pointer-and-length identical
	// to full[id]" proves p IS path id (see IsExtension).
	full []Path
	// keys[id] is the lazily-built canonical Path.Key rendering
	// ("0->3->4"), built incrementally from the parent's key.
	keys []string
	// roots[u] is the PathID of the single-node path {u}, or NoPath.
	roots []PathID
	// frozen marks the arena immutable: growth operations fail (NoPath)
	// instead of interning, and the lazy caches are already materialized,
	// so every method is a pure read (see Freeze).
	frozen bool
	// kidOff/kids are the frozen arena's child index, built by Freeze: the
	// children of id are kids[kidOff[id]:kidOff[id+1]], contiguous, so a
	// frozen Extend scans a few adjacent 8-byte records instead of chasing
	// the sibling list through the entry table.
	kidOff []int32
	kids   []childRef
	// bySlice memoizes InternCached results by slice identity (base
	// pointer, with the length double-checked in the memo entry — the
	// pointer alone keeps the map on the fast 8-byte hash path). Keys pin
	// their backing arrays, so an address can never be recycled under a
	// live entry.
	bySlice map[*NodeID]sliceMemo
}

// sliceMemo is one slice-identity memo entry: the slice length it was
// recorded at and the interned PathID. Path contents are immutable
// module-wide (the sim.Payload contract), so base pointer + length
// implies equal contents.
type sliceMemo struct {
	n  int
	id PathID
}

// NewPathArena returns an empty arena for paths of g. It panics when g
// has more than MaxNodes nodes.
func NewPathArena(g *Graph) *PathArena {
	if g.N() > MaxNodes {
		panic(fmt.Sprintf("graph: a path arena holds at most %d nodes, graph has %d", MaxNodes, g.N()))
	}
	roots := make([]PathID, g.N())
	for i := range roots {
		roots[i] = NoPath
	}
	return &PathArena{g: g, roots: roots}
}

// Graph returns the graph the arena's paths live in.
func (a *PathArena) Graph() *Graph { return a.g }

// Len returns the number of interned paths.
func (a *PathArena) Len() int { return len(a.entries) }

// grown returns s extended with zero values to length n (s itself when it
// is already that long); the per-entry side tables grow with the entries.
func grown[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// Root interns (or finds) the single-node path {u}. It returns NoPath when
// u is not a node of the graph.
func (a *PathArena) Root(u NodeID) PathID {
	if !a.g.valid(u) {
		return NoPath
	}
	if id := a.roots[u]; id != NoPath {
		return id
	}
	if a.frozen {
		return NoPath
	}
	id := PathID(len(a.entries))
	a.entries = append(a.entries, pathEntry{
		parent:     NoPath,
		firstChild: NoPath,
		nextSib:    NoPath,
		node:       int32(u),
		origin:     int32(u),
		length:     1,
		mask:       bit(u),
	})
	a.roots[u] = id
	return id
}

// Extend interns (or finds) the path id·u. It returns NoPath when the
// extension is not a simple path of the graph: u not adjacent to the last
// node, or u already on the path.
func (a *PathArena) Extend(id PathID, u NodeID) PathID {
	if id == NoPath {
		return a.Root(u)
	}
	if a.frozen {
		for _, k := range a.kids[a.kidOff[id]:a.kidOff[id+1]] {
			if NodeID(k.node) == u {
				return k.id
			}
		}
		return NoPath
	}
	for c := a.entries[id].firstChild; c != NoPath; c = a.entries[c].nextSib {
		if NodeID(a.entries[c].node) == u {
			return c
		}
	}
	e := &a.entries[id]
	if !a.g.HasEdge(NodeID(e.node), u) || e.mask.Contains(u) {
		return NoPath
	}
	c := PathID(len(a.entries))
	a.entries = append(a.entries, pathEntry{
		parent:     id,
		firstChild: NoPath,
		nextSib:    e.firstChild,
		node:       int32(u),
		origin:     e.origin,
		length:     e.length + 1,
		mask:       e.mask | bit(u),
	})
	a.entries[id].firstChild = c
	return c
}

// Intern interns path p, validating that it is a non-empty valid simple
// path of the graph; it returns NoPath otherwise.
func (a *PathArena) Intern(p Path) PathID {
	if len(p) == 0 {
		return NoPath
	}
	id := a.Root(p[0])
	for _, u := range p[1:] {
		if id == NoPath {
			return NoPath
		}
		id = a.Extend(id, u)
	}
	return id
}

// InternCached is Intern memoized by slice identity. The flooding hot
// path interns the same materialized path slices over and over — honest
// forwarders send Path(id) slices, which are cached per arena entry and
// therefore pointer-stable across phases and across the co-located
// instances of a batch — and the memo turns each repeat walk into one map
// lookup. Results are identical to Intern: only valid interning outcomes
// are memoized, and the memo key pins the slice, so its contents (which
// are immutable by the module-wide Path convention) can never be
// recycled. Fresh slices (e.g. adversarial forgeries) simply miss and pay
// the normal walk. A frozen arena must stay read-only, so its memo never
// learns: every call there pays the walk, and callers that want O(1)
// identity on a frozen arena carry a PathID beside the slice and check it
// with IsExtension.
func (a *PathArena) InternCached(p Path) PathID {
	if len(p) == 0 {
		return NoPath
	}
	if m, ok := a.bySlice[&p[0]]; ok && m.n == len(p) {
		return m.id
	}
	id := a.Intern(p)
	if id != NoPath && !a.frozen {
		if a.bySlice == nil {
			a.bySlice = make(map[*NodeID]sliceMemo)
		}
		if _, taken := a.bySlice[&p[0]]; !taken {
			// First length interned for a base pointer wins: an existing
			// entry must have a different length (an equal one would have
			// hit above), and it pins its slice, so it stays valid.
			a.bySlice[&p[0]] = sliceMemo{n: len(p), id: id}
		}
	}
	return id
}

// Parent returns the PathID of id without its last node (NoPath for a
// single-node path).
func (a *PathArena) Parent(id PathID) PathID { return a.entries[id].parent }

// Origin returns the first node of the path.
func (a *PathArena) Origin(id PathID) NodeID { return NodeID(a.entries[id].origin) }

// Last returns the final node of the path.
func (a *PathArena) Last(id PathID) NodeID { return NodeID(a.entries[id].node) }

// PathLen returns the number of nodes on the path.
func (a *PathArena) PathLen(id PathID) int { return int(a.entries[id].length) }

// Mask returns the set of the path's nodes.
func (a *PathArena) Mask(id PathID) Set { return a.entries[id].mask }

// Freeze makes the arena immutable and safe for concurrent readers: every
// entry's lazy materialized path is built eagerly, the child index that
// makes a frozen Extend a contiguous scan is laid out, and from now on Root,
// Extend, Intern, and InternCached return their cached results for known
// paths and NoPath for unknown ones instead of growing the arena. Freezing
// is how a compiled propagation plan publishes its arena: replaying nodes
// only ever look up paths the plan already interned, so the frozen arena
// behaves, for them, exactly like a private arena that happens to be
// pre-populated. Freeze is idempotent; it must be called before the arena
// is shared across goroutines.
func (a *PathArena) Freeze() {
	if a.frozen {
		return
	}
	// Materialize the missing paths out of one slab. Each gets exact
	// capacity, so any append to a shared slice copies.
	n := len(a.entries)
	a.full = grown(a.full, n)
	total := 0
	for id := range a.entries {
		if a.full[id] == nil {
			total += int(a.entries[id].length)
		}
	}
	slab := make(Path, 0, total)
	for id := range a.entries {
		if a.full[id] == nil {
			off := len(slab)
			slab = a.AppendTo(PathID(id), slab)
			a.full[id] = slab[off:len(slab):len(slab)]
		}
	}
	// Child index, children in sibling-list order.
	a.kidOff = make([]int32, n+1)
	a.kids = make([]childRef, 0, n)
	for id := range a.entries {
		for c := a.entries[id].firstChild; c != NoPath; c = a.entries[c].nextSib {
			a.kids = append(a.kids, childRef{node: a.entries[c].node, id: c})
		}
		a.kidOff[id+1] = int32(len(a.kids))
	}
	a.frozen = true
}

// Frozen reports whether the arena has been frozen.
func (a *PathArena) Frozen() bool { return a.frozen }

// Contains reports whether u lies on the path.
func (a *PathArena) Contains(id PathID, u NodeID) bool {
	return a.entries[id].mask.Contains(u)
}

// AppendTo appends the path's nodes in order (origin first) to dst and
// returns the extended slice.
func (a *PathArena) AppendTo(id PathID, dst Path) Path {
	start := len(dst)
	for at := id; at != NoPath; at = a.entries[at].parent {
		dst = append(dst, NodeID(a.entries[at].node))
	}
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Path returns the materialized node sequence of the interned path, built
// once per entry and shared by all callers — Path values are immutable by
// convention module-wide (the sim.Payload contract), so the shared slice
// must not be modified. Use AppendTo for a private copy.
func (a *PathArena) Path(id PathID) Path {
	if id == NoPath {
		return nil
	}
	if a.frozen { // Freeze built every path; concurrent readers must not store
		return a.full[id]
	}
	a.full = grown(a.full, len(a.entries))
	if a.full[id] == nil {
		// Exact capacity: any append to the shared slice copies.
		a.full[id] = a.AppendTo(id, make(Path, 0, a.entries[id].length))
	}
	return a.full[id]
}

// IsExtension reports whether id is the path p·u, judged by identity and
// not by content: id's last node is u and p is the arena's own
// materialized slice of id's prefix — the very slice Path(Parent(id))
// returns, compared by base pointer and length (an empty p when id is the
// single-node path {u}). It is how an untrusted (PathID, slice) claim is
// checked in O(1): the arena materializes each path once and never
// rebuilds it, and Path contents are immutable module-wide, so the
// identical slice can only be that prefix. Any other id (out of range,
// ending elsewhere, prefix not yet materialized) and any other slice (equal
// contents included) report false; the caller then establishes identity
// itself, with Intern or InternCached and Extend.
func (a *PathArena) IsExtension(id PathID, p Path, u NodeID) bool {
	if id < 0 || int(id) >= len(a.entries) {
		return false
	}
	e := &a.entries[id]
	if NodeID(e.node) != u {
		return false
	}
	if e.parent == NoPath {
		return len(p) == 0
	}
	if int(e.parent) >= len(a.full) || len(p) == 0 {
		return false
	}
	full := a.full[e.parent]
	return len(full) == len(p) && &full[0] == &p[0]
}

// Key returns the canonical Path.Key rendering of the interned path,
// built once per entry (incrementally over the parent's cached key) and
// shared by all callers.
func (a *PathArena) Key(id PathID) string {
	if int(id) < len(a.keys) && a.keys[id] != "" {
		return a.keys[id]
	}
	e := &a.entries[id]
	k := strconv.Itoa(int(e.node))
	if e.parent != NoPath {
		k = a.Key(e.parent) + "->" + k
	}
	if a.frozen {
		// A frozen arena may have concurrent readers; renderings that
		// were not cached before the freeze are computed per call
		// instead of racing on the lazy cache.
		return k
	}
	a.keys = grown(a.keys, len(a.entries))
	a.keys[id] = k
	return k
}

// internal returns the set of the path's internal nodes: a simple path
// visits each node once, so clearing the endpoints leaves the interior.
func (a *PathArena) internal(id PathID) Set {
	e := &a.entries[id]
	return e.mask &^ (bit(NodeID(e.origin)) | bit(NodeID(e.node)))
}

// ExcludesInternal reports whether no internal node of the path belongs to
// x (endpoints may be members) — Path.Excludes on interned paths.
func (a *PathArena) ExcludesInternal(id PathID, x Set) bool {
	return a.internal(id)&x == 0
}

// InternallyDisjointIDs reports whether the two paths share no internal
// nodes (InternallyDisjoint on interned paths).
func (a *PathArena) InternallyDisjointIDs(p, q PathID) bool {
	return a.internal(p)&a.internal(q) == 0
}

// DisjointExceptLastIDs reports whether the two paths share exactly their
// final node (DisjointExceptLast on interned paths).
func (a *PathArena) DisjointExceptLastIDs(p, q PathID) bool {
	pe, qe := &a.entries[p], &a.entries[q]
	return pe.node == qe.node && pe.mask&qe.mask == bit(NodeID(pe.node))
}
