package graph

import (
	"fmt"
	"iter"
	"math/bits"
	"strings"
)

// MaxNodes is the largest graph the protocols run on: a node set is one
// 64-bit word. Graph constructors that take untrusted sizes (NewFromEdges,
// gen.ParseSpec, eval's spec validation) reject larger graphs.
const MaxNodes = 64

// Set is a set of node ids of a graph with at most MaxNodes nodes, one bit
// per node. The zero Set is the empty set, and a copy is an independent
// set.
type Set uint64

// NewSet builds a set from the given nodes.
func NewSet(nodes ...NodeID) Set {
	var s Set
	for _, u := range nodes {
		s.Add(u)
	}
	return s
}

// bit is the one-member set {u}, for u already known to be in range.
func bit(u NodeID) Set { return 1 << uint(u) }

// Contains reports membership; ids outside 0..MaxNodes-1 are never members.
func (s Set) Contains(u NodeID) bool {
	return uint(u) < MaxNodes && s&bit(u) != 0
}

// Add inserts u. It panics when u is outside 0..MaxNodes-1.
func (s *Set) Add(u NodeID) {
	if uint(u) >= MaxNodes {
		outOfRange(u)
	}
	*s |= bit(u)
}

// outOfRange panics for a node that does not fit a set; it is apart from
// Add, and not inlined, so that Add stays small enough to inline.
//
//go:noinline
func outOfRange(u NodeID) {
	panic(fmt.Sprintf("graph: node %d does not fit a %d-node set", u, MaxNodes))
}

// Remove deletes u.
func (s *Set) Remove(u NodeID) {
	if uint(u) < MaxNodes {
		*s &^= bit(u)
	}
}

// Len returns the cardinality.
func (s Set) Len() int { return bits.OnesCount64(uint64(s)) }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns s \ t.
func (s Set) Minus(t Set) Set { return s &^ t }

// Equal reports whether s and t contain the same nodes.
func (s Set) Equal(t Set) bool { return s == t }

// All yields the members in ascending order.
func (s Set) All() iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		for ; s != 0; s &= s - 1 {
			if !yield(NodeID(bits.TrailingZeros64(uint64(s)))) {
				return
			}
		}
	}
}

// Slice returns the members in ascending order.
func (s Set) Slice() []NodeID {
	out := make([]NodeID, 0, s.Len())
	for u := range s.All() {
		out = append(out, u)
	}
	return out
}

// String renders the set as "{1 2 5}".
func (s Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for u := range s.All() {
		if sb.Len() > 1 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", u)
	}
	sb.WriteByte('}')
	return sb.String()
}
