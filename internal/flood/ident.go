package flood

import (
	"encoding/binary"

	"lbcast/internal/graph"
	"lbcast/internal/sim"
)

// This file implements the integer message-identity layer: an Ident table
// interns canonical body/message key strings (sim.Payload.Key renderings)
// and slot strings into dense integer IDs, so the hot paths — rule-(ii)
// dedup, body-key filters, transcript probes — compare and hash small
// integers instead of building and hashing formatted strings. Receipt
// recording interns no body: a ReceiptStore resolves a structured body's
// identity on first read (ReceiptStore.BodyID), so only bodies something
// compares ever reach the table. Strings survive only at the trace boundary (golden encoding,
// observers) and on the wire, where a Byzantine sender may forge anything
// and identity must be established by the receiver.
//
// An Ident is per-run, arena-style state: like a graph.PathArena it is NOT
// safe for concurrent use and is owned by one protocol node for its whole
// run (all flooding phases), which keeps BodyIDs stable across phases.
// After the run completes it is safe for any number of concurrent readers.
//
// All identity flows through one string-intern table: the memo caches
// (slice identity, node slots) are pure fast paths that bottom out in
// KeyID/SlotIDOf, so two routes to the same canonical string always yield
// the same integer. Two identities never render a key: a message's
// (MsgKey), the integer pair of its body identity and the PathID of Π in
// the arena the table is bound to (NewIdentOn), and a message sequence's
// (SeqKeyID), a compact content key built from those pairs and interned
// apart from the rendered keys.

// BodyID is the dense integer identity of a canonical key string (a body
// identity or a full message identity) within one Ident table. The zero
// value is AnyBody, reserved as the Filter sentinel; real IDs start at 1.
type BodyID int32

// SlotID is the dense integer identity of a slot string within one Ident
// table. The zero value is the empty slot "".
type SlotID int32

// AnyBody is the zero BodyID: in a Filter it means "no body restriction",
// and it is the identity of the empty key (which can never be filtered on,
// matching the historical string-filter semantics).
const AnyBody BodyID = 0

// EmptySlot is the pre-reserved SlotID of the empty slot string "".
const EmptySlot SlotID = 0

// The pre-reserved identities of the two ValueBody keys, identical in
// every Ident table so step-(b)/(c) filters can use them as constants.
const (
	valueZeroID BodyID = 1
	valueOneID  BodyID = 2
)

// ValueKeyID returns the pre-reserved identity of ValueBody{v}.Key(). It is
// the same in every Ident table.
func ValueKeyID(v sim.Value) BodyID {
	if v == sim.Zero {
		return valueZeroID
	}
	return valueOneID
}

// KeyInterner is implemented by bodies that can produce their canonical
// identity without rendering the key string on every call (typically via
// the table's slice-identity memo). InternKey must return IDs that are
// equal exactly when the bodies' Key renderings are: either t.KeyID(b.Key())
// itself, or — for every value of the body type alike — the ID of a
// compact content key that determines the rendering (SeqKeyID), in which
// case KeyString of the ID is that key and not Key().
type KeyInterner interface {
	InternKey(t *Ident) BodyID
}

// SlotInterner is the slot analogue of KeyInterner: InternSlot must return
// the same ID that t.SlotIDOf(b.Slot()) would.
type SlotInterner interface {
	InternSlot(t *Ident) SlotID
}

// memoKey identifies a structured body by anchor identity: a pointer to
// the body's backing array (boxed — pointers store into an interface
// without allocating), the element count, and a caller tag distinguishing
// bodies that share a slice. Payload immutability (the sim.Payload
// contract) makes pointer+length imply equal contents; keys pin their
// backing arrays, so an address can never be recycled under a live entry.
type memoKey struct {
	anchor any
	n      int
	tag    int32
}

// Ident interns body/message keys and slot strings of one protocol node's
// run into dense integer IDs.
type Ident struct {
	byKey map[string]BodyID
	keys  []string // id -> canonical string
	memo  map[memoKey]BodyID
	// arena resolves the Π of message identities (MsgKey); nil resolves
	// none, and every message falls back to its canonical rendering.
	arena *graph.PathArena
	// seqKeys interns SeqKeyID content keys apart from byKey, so that no
	// rendered key — whatever a forged body renders — can meet one. Both
	// draw IDs from keys.
	seqKeys map[string]BodyID
	// buf is the reused buffer SeqKeyID builds content keys in.
	buf []byte

	slotIDs map[string]SlotID
	slots   []string // id -> slot string
	// nodeSlots caches per-(namespace, node) slot identities (packed key),
	// e.g. Algorithm 2's one-transcript-per-observed-node slots.
	nodeSlots map[uint64]SlotID
}

// NewIdent returns a table with the ValueBody keys and the empty slot
// pre-reserved.
func NewIdent() *Ident {
	return &Ident{
		byKey:   map[string]BodyID{"": AnyBody, "v:0": valueZeroID, "v:1": valueOneID},
		keys:    []string{"", "v:0", "v:1"},
		slotIDs: map[string]SlotID{"": EmptySlot},
		slots:   []string{""},
	}
}

// NewIdentOn returns a table like NewIdent whose message identities
// (MsgKey) resolve Π in arena a — the arena the owning node floods on.
func NewIdentOn(a *graph.PathArena) *Ident {
	t := NewIdent()
	t.arena = a
	return t
}

// Len returns the number of interned key strings (including the three
// pre-reserved ones).
func (t *Ident) Len() int { return len(t.keys) }

// KeyID interns a canonical key string.
func (t *Ident) KeyID(s string) BodyID {
	if id, ok := t.byKey[s]; ok {
		return id
	}
	id := BodyID(len(t.keys))
	t.byKey[s] = id
	t.keys = append(t.keys, s)
	return id
}

// KeyString returns the canonical string of an interned identity. The
// string is shared; this is the one sanctioned ID→string crossing (trace
// rendering and tests). For a body interned through a compact content key
// (see KeyInterner) it is that key.
func (t *Ident) KeyString(id BodyID) string { return t.keys[id] }

// MemoKey looks up a structured body's identity by anchor (see memoKey).
func (t *Ident) MemoKey(anchor any, n int, tag int32) (BodyID, bool) {
	id, ok := t.memo[memoKey{anchor, n, tag}]
	return id, ok
}

// SetMemoKey records id, an identity interned in this table, under the
// anchor and returns it.
func (t *Ident) SetMemoKey(anchor any, n int, tag int32, id BodyID) BodyID {
	if t.memo == nil {
		t.memo = make(map[memoKey]BodyID)
	}
	t.memo[memoKey{anchor, n, tag}] = id
	return id
}

// MsgKey is the integer identity of a flooded message (body, Π) within one
// Ident table: its body identity packed beside the PathID of Π in the
// table's arena (NoPath for an initiation's empty Π). A Π the arena cannot
// resolve falls back to the interned canonical rendering of the whole
// message, packed beside a path half no PathID takes, so the two forms
// never meet. Two messages have equal keys exactly when their Msg.Key
// renderings are equal.
type MsgKey uint64

// unresolvedPath is the path half of a fallback MsgKey.
const unresolvedPath graph.PathID = -2

// PackMsgKey returns the MsgKey of a message whose body identity is body
// and whose Π is the interned path pi — the probe form, for a caller that
// knows both halves.
func PackMsgKey(body BodyID, pi graph.PathID) MsgKey {
	return MsgKey(uint64(uint32(body))<<32 | uint64(uint32(pi)))
}

// MsgKey returns the identity of message m as transmitted by sender from.
// Π is resolved in the table's arena: through m's hint when the arena
// verifies it as Π·from (graph.PathArena.IsExtension, O(1) — a lying hint
// is ignored, see wire.go), otherwise by interning Π. Only a Π that is not
// a simple path of the graph, or a table bound to no arena, pays for the
// canonical rendering.
func (t *Ident) MsgKey(m Msg, from graph.NodeID) MsgKey {
	body := t.BodyKeyID(m.Body)
	if len(m.Pi) == 0 {
		return PackMsgKey(body, graph.NoPath)
	}
	if a := t.arena; a != nil {
		if a.IsExtension(m.Hint, m.Pi, from) {
			return PackMsgKey(body, a.Parent(m.Hint))
		}
		if pi := a.InternCached(m.Pi); pi != graph.NoPath {
			return PackMsgKey(body, pi)
		}
	}
	return PackMsgKey(t.KeyID(m.Key()), unresolvedPath)
}

// SeqKeyID interns the content identity of n round-stamped messages
// transmitted by sender from, in order — Algorithm 2's phase-2
// transcripts; at(i) returns the i-th stamp and message. The key is the
// sender, then per message its stamp and both MsgKey halves, as varints:
// it determines every message's rendering, so two sequences from one
// sender share an ID exactly when their renderings agree, and it is a few
// bytes per message where the rendering is tens. It is built in the
// table's reused buffer and copied only when new.
func (t *Ident) SeqKeyID(from graph.NodeID, n int, at func(i int) (int32, Msg)) BodyID {
	// Take the buffer: a message body may itself be a sequence, and its
	// MsgKey then builds a key of its own.
	buf := binary.AppendVarint(t.buf[:0], int64(from))
	t.buf = nil
	for i := 0; i < n; i++ {
		stamp, m := at(i)
		k := t.MsgKey(m, from)
		buf = binary.AppendVarint(buf, int64(stamp))
		buf = binary.AppendVarint(buf, int64(int32(k>>32)))
		buf = binary.AppendVarint(buf, int64(int32(k)))
	}
	t.buf = buf
	if id, ok := t.seqKeys[string(buf)]; ok {
		return id
	}
	if t.seqKeys == nil {
		t.seqKeys = make(map[string]BodyID)
	}
	id := BodyID(len(t.keys))
	key := string(buf)
	t.seqKeys[key] = id
	t.keys = append(t.keys, key)
	return id
}

// SlotIDOf interns a slot string.
func (t *Ident) SlotIDOf(s string) SlotID {
	if id, ok := t.slotIDs[s]; ok {
		return id
	}
	id := SlotID(len(t.slots))
	t.slotIDs[s] = id
	t.slots = append(t.slots, s)
	return id
}

// SlotString returns the slot string of an interned slot identity.
func (t *Ident) SlotString(id SlotID) string { return t.slots[id] }

// Slots returns the number of interned slot strings.
func (t *Ident) Slots() int { return len(t.slots) }

func nodeSlotKey(ns int32, u graph.NodeID) uint64 {
	return uint64(uint32(ns))<<32 | uint64(uint32(u))
}

// NodeSlot looks up a per-(namespace, node) slot identity.
func (t *Ident) NodeSlot(ns int32, u graph.NodeID) (SlotID, bool) {
	id, ok := t.nodeSlots[nodeSlotKey(ns, u)]
	return id, ok
}

// SetNodeSlot interns the rendered slot string and caches it under
// (ns, u), returning the ID.
func (t *Ident) SetNodeSlot(ns int32, u graph.NodeID, slot string) SlotID {
	id := t.SlotIDOf(slot)
	if t.nodeSlots == nil {
		t.nodeSlots = make(map[uint64]SlotID)
	}
	t.nodeSlots[nodeSlotKey(ns, u)] = id
	return id
}

// BodyKeyID returns the body's canonical identity, taking the cheapest
// route available: fixed constants for ValueBody, the body's own
// KeyInterner fast path, or interning the rendered Key(). The ValueBody
// branch never touches the table, so it is valid on a nil receiver, the
// table of an ident-free planned store (see ReceiptStore.AddPlanned). A
// nil table resolves every structured body to AnyBody: such a store carries
// no per-run ident state at all and must never be queried with a Body
// filter (the vector replay group's planned views — their phase-end
// reads project lane values out of receipt bodies directly and filter
// by origin, path, and exclusion only, so they never resolve one).
func (t *Ident) BodyKeyID(b Body) BodyID {
	if vb, ok := b.(ValueBody); ok {
		return ValueKeyID(vb.Value)
	}
	if t == nil {
		return AnyBody
	}
	if fk, ok := b.(KeyInterner); ok {
		return fk.InternKey(t)
	}
	return t.KeyID(b.Key())
}

// BodySlotID returns the body's slot identity, mirroring BodyKeyID.
func (t *Ident) BodySlotID(b Body) SlotID {
	if _, ok := b.(ValueBody); ok {
		return EmptySlot
	}
	if fs, ok := b.(SlotInterner); ok {
		return fs.InternSlot(t)
	}
	return t.SlotIDOf(b.Slot())
}
