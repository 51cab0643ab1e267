package xenstore

import "math/bits"

// The store's state is an immutable, structurally-shared tree: nodes
// are never modified after publication. Every mutation (write, rm,
// mkdir, graft, transaction commit) builds a new root by copying
// only the spine — the nodes on the path from the root to the change —
// and publishes it by replacing the store's root pointer. Everything
// hanging off the copied spine is shared with the previous version. A commit
// copies each spine node once however many of its writes pass
// through it: later writes edit the commit's own, not yet published
// copies in place (pool.go's edit window).
//
// That single invariant is what makes Store.Snapshot O(1): a snapshot
// is just the current root pointer, and it stays internally consistent
// forever because no mutation can reach the nodes it captured.
//
// Each node's children live in a persistent hash-array-mapped trie
// (HAMT) keyed by the child name's FNV-1a hash, 5 bits of hash per
// level. Copying a directory on the spine therefore costs
// O(log32 fanout) small arrays instead of O(fanout): /local/domain
// with 8000 guests copies two ~32-slot arrays per write beneath it,
// not an 8000-entry map.
//
// Hot-path mechanics (profile-guided, see DESIGN.md §9):
//
//   - every node carries its segment's 64-bit FNV id (hsh), computed
//     once at creation; trie descent and spine copies compare and key
//     on that integer and never re-hash the name string;
//   - spine copies draw node and trie-level objects from the owning
//     store's pool (pool.go) and retire the objects they replace, so
//     steady-state mutation recycles its own garbage instead of
//     feeding the GC. Retirement is COW-safe: anything a snapshot
//     could have captured is never reused;
//   - a trie level's slot array has its size bracket's capacity
//     (1, 2, 4, 8, 16, 24 or 32 slots) for life: it is recycled only
//     within that bracket, and an in-place insert never grows it past
//     its capacity;
//   - a node created under a store vocabulary word (internTab) takes
//     the shared interned name, not a substring of the written path,
//     so a live node does not keep its writer's whole path alive.
//
// The helpers below take an optional *pool; nil (deserialization,
// tests) falls back to plain allocation and retires nothing.

// node is one immutable store node. The zero gen means "never
// explicitly modified" — freshly ensured intermediate directories keep
// gen 0 exactly like the historical mutable implementation, which is
// load-bearing for transaction-conflict semantics (a transaction that
// observed absence does not conflict with an intermediate directory
// appearing).
type node struct {
	name  string
	hsh   uint64 // FNV-1a of name: the interned segment id and trie key
	value string
	gen   uint64 // bumped on any modification (incl. child add/rm)

	kids  *amtNode // nil when the node has no children
	nkids int      // direct children

	// Pool provenance (see pool.go). ptag identifies the allocating
	// store's pool (0 = unpooled: deserialized, foreign, or test
	// construction); birth is that store's snapshot epoch at
	// allocation. A node is recycled only by its own pool and only
	// when no snapshot was taken during its lifetime. edit is the
	// open commit's tag while that commit owns the node, 0 otherwise.
	ptag  uint32
	edit  uint32
	birth uint64
}

// clone returns a mutable copy of n drawn from p (plain allocation
// when p is nil); callers fix it up and publish it inside a new tree
// version. The original is never touched — and never retired here:
// retirement is the caller's call, because clones also copy foreign
// nodes (grafts) whose originals stay live.
func (n *node) clone(p *pool) *node {
	c := p.getNode()
	ptag, edit, birth := c.ptag, c.edit, c.birth
	*c = *n
	c.ptag, c.edit, c.birth = ptag, edit, birth
	return c
}

// ---------------------------------------------------------------------------
// Persistent HAMT: segment id (hsh) → *node.
// ---------------------------------------------------------------------------

const (
	amtBits  = 5
	amtWidth = 1 << amtBits // 32
	amtMask  = amtWidth - 1
	// amtMaxShift is the hash exhaustion point: past it, entries live
	// in a collision bucket and are scanned linearly (FNV-1a makes
	// this effectively unreachable, but correctness must not rely on
	// hash quality).
	amtMaxShift = 60
)

// amtNode is one bitmap-compressed trie level. slots[i] is either a
// *node (a direct entry) or a *amtNode (a deeper level); at
// amtMaxShift, slots hold *amtCollision. ptag/edit/birth mirror
// node's pool provenance.
type amtNode struct {
	bitmap uint32
	ptag   uint32
	edit   uint32
	birth  uint64
	slots  []any
}

// amtCollision is the (practically unreachable) full-hash-collision
// bucket.
type amtCollision struct {
	entries []*node
}

// FNV-1a parameters, shared with hashIter (store.go), which computes
// the same hash inline while splitting paths.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// nameHash is FNV-1a over the child name — the segment's interned id.
// Allocation-free, computed once per node at creation and carried in
// node.hsh thereafter.
func nameHash(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// internTab holds the xenstore vocabulary: device entry names, domain
// registry keys, and the small state/flag values that appear in
// practically every guest subtree. The live store names new nodes from
// it (applyWrite), so a guest's "state" or "backend-id" node does not
// pin the path it was written under, and the snapshot decoder draws
// names and values from it, so a blob's standard strings never touch
// the per-reader map. It is built once and read-only thereafter, so
// concurrent stores and deserializers share it without locking.
var internTab = func() map[string]string {
	m := make(map[string]string, 64)
	for _, s := range []string{
		"", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9",
		"backend", "backend-id", "bridge", "event-channel",
		"frontend", "frontend-id", "grant-ref", "handle", "mac",
		"online", "state", "device", "vif", "vbd", "console",
		"name", "vm", "domid", "memory", "target", "static-max",
		"cpu", "availability", "limit", "type", "control",
		"platform-feature-multiprocessor-suspend", "shutdown",
		"image", "entry", "unpaused", "ring-ref", "port",
		"xenbr0", "xenconsoled", "1048576",
	} {
		m[s] = s
	}
	return m
}()

// slotIndex maps a bitmap position to its packed slot index.
func (a *amtNode) slotIndex(bit uint32) int {
	return bits.OnesCount32(a.bitmap & (bit - 1))
}

// amtGet returns the child with segment id h named name, or nil.
// Descent keys on the integer id; the name is compared only at the
// final candidate, and only to guard against full 64-bit collisions.
func amtGet(a *amtNode, h uint64, name string) *node {
	shift := uint(0)
	for a != nil {
		if shift >= amtMaxShift {
			for _, s := range a.slots {
				if c, ok := s.(*amtCollision); ok {
					for _, e := range c.entries {
						if e.name == name {
							return e
						}
					}
				}
			}
			return nil
		}
		bit := uint32(1) << ((h >> shift) & amtMask)
		if a.bitmap&bit == 0 {
			return nil
		}
		switch s := a.slots[a.slotIndex(bit)].(type) {
		case *node:
			if s.hsh == h && s.name == name {
				return s
			}
			return nil
		case *amtNode:
			a, shift = s, shift+amtBits
		default:
			return nil
		}
	}
	return nil
}

// withSlot returns a copy of a with the packed slot at idx replaced,
// retiring the original level to p. A level the open commit owns is
// edited in place instead.
func (a *amtNode) withSlot(p *pool, idx int, s any) *amtNode {
	if p.owns(a.edit) {
		a.slots[idx] = s
		return a
	}
	c := p.getAMT(len(a.slots))
	c.bitmap = a.bitmap
	copy(c.slots, a.slots)
	c.slots[idx] = s
	p.retireAMT(a)
	return c
}

// withInsert returns a copy of a with a new bit set and slot inserted,
// retiring the original level to p. A level the open commit owns is
// edited in place instead while its slot array has room; a full one
// is copied into the next bracket (pool.go), so no level's array ever
// regrows outside the bracket it was allocated for.
func (a *amtNode) withInsert(p *pool, bit uint32, s any) *amtNode {
	idx := a.slotIndex(bit)
	if p.owns(a.edit) && len(a.slots) < cap(a.slots) {
		a.bitmap |= bit
		a.slots = a.slots[:len(a.slots)+1]
		copy(a.slots[idx+1:], a.slots[idx:])
		a.slots[idx] = s
		return a
	}
	c := p.getAMT(len(a.slots) + 1)
	c.bitmap = a.bitmap | bit
	copy(c.slots, a.slots[:idx])
	c.slots[idx] = s
	copy(c.slots[idx+1:], a.slots[idx:])
	p.retireAMT(a)
	return c
}

// withRemove returns a copy of a with a bit cleared and its slot
// dropped (nil when the level empties), retiring the original.
func (a *amtNode) withRemove(p *pool, bit uint32) *amtNode {
	if a.bitmap == bit {
		p.retireAMT(a)
		return nil
	}
	idx := a.slotIndex(bit)
	c := p.getAMT(len(a.slots) - 1)
	c.bitmap = a.bitmap &^ bit
	copy(c.slots, a.slots[:idx])
	copy(c.slots[idx:], a.slots[idx+1:])
	p.retireAMT(a)
	return c
}

// amtBuild builds the trie of a directory under construction
// (snapshot deserialization) from all of its children at once. Each
// level is allocated once, at its final slot count and that count's
// bracket capacity, and unpooled (ptag 0): a decoded tree may be
// grafted into any store and must never be recycled. When several
// children share a hash chunk, kids is reordered in place, grouped by
// chunk with each group kept in input order (a collision bucket lists
// its entries in name order), and scratch must hold len(kids)
// entries. Callers guarantee unique names (the canonical snapshot
// format enforces strictly ascending children).
func amtBuild(kids, scratch []*node, shift uint) *amtNode {
	if len(kids) == 0 {
		return nil
	}
	if shift >= amtMaxShift {
		return &amtNode{bitmap: 1, slots: []any{&amtCollision{entries: append([]*node(nil), kids...)}}}
	}
	var bitmap uint32
	for _, c := range kids {
		bitmap |= 1 << ((c.hsh >> shift) & amtMask)
	}
	a := (*pool)(nil).getAMT(bits.OnesCount32(bitmap))
	a.bitmap = bitmap
	if len(a.slots) == len(kids) {
		// Every child has a chunk of its own: the common case.
		for _, c := range kids {
			a.slots[a.slotIndex(1<<((c.hsh>>shift)&amtMask))] = c
		}
		return a
	}
	// Stable counting sort by chunk, through scratch; a chunk with
	// several children becomes a deeper level.
	var count, next [amtWidth]int
	for _, c := range kids {
		count[(c.hsh>>shift)&amtMask]++
	}
	for i, sum := 0, 0; i < amtWidth; i++ {
		next[i] = sum
		sum += count[i]
	}
	for _, c := range kids {
		i := (c.hsh >> shift) & amtMask
		scratch[next[i]] = c
		next[i]++
	}
	copy(kids, scratch[:len(kids)])
	lo, slot := 0, 0
	for _, n := range count {
		switch {
		case n == 1:
			a.slots[slot] = kids[lo]
		case n > 1:
			a.slots[slot] = amtBuild(kids[lo:lo+n], scratch, shift+amtBits)
		default:
			continue
		}
		slot++
		lo += n
	}
	return a
}

// amtSet returns a new trie with child present under its id (hsh),
// reporting whether the entry is new (vs replaced). Replaced levels
// are retired to p; the replaced entry node is not (the caller owns
// that decision).
func amtSet(p *pool, a *amtNode, shift uint, child *node) (*amtNode, bool) {
	h := child.hsh
	if a == nil {
		if shift >= amtMaxShift {
			c := p.getAMT(1)
			c.bitmap = 1
			c.slots[0] = &amtCollision{entries: []*node{child}}
			return c, true
		}
		bit := uint32(1) << ((h >> shift) & amtMask)
		c := p.getAMT(1)
		c.bitmap = bit
		c.slots[0] = child
		return c, true
	}
	if shift >= amtMaxShift {
		c, _ := a.slots[0].(*amtCollision)
		for i, e := range c.entries {
			if e.name == child.name {
				entries := make([]*node, len(c.entries))
				copy(entries, c.entries)
				entries[i] = child
				return a.withSlot(p, 0, &amtCollision{entries: entries}), false
			}
		}
		entries := make([]*node, len(c.entries)+1)
		copy(entries, c.entries)
		entries[len(c.entries)] = child
		return a.withSlot(p, 0, &amtCollision{entries: entries}), true
	}
	bit := uint32(1) << ((h >> shift) & amtMask)
	if a.bitmap&bit == 0 {
		return a.withInsert(p, bit, child), true
	}
	idx := a.slotIndex(bit)
	switch s := a.slots[idx].(type) {
	case *node:
		if s.hsh == h && s.name == child.name {
			return a.withSlot(p, idx, child), false
		}
		// Two ids share this slot: push the old entry one level down
		// next to the new one. s.hsh is already computed — no rehash.
		sub, _ := amtSet(p, nil, shift+amtBits, s)
		sub, _ = amtSet(p, sub, shift+amtBits, child)
		return a.withSlot(p, idx, sub), true
	case *amtNode:
		sub, added := amtSet(p, s, shift+amtBits, child)
		return a.withSlot(p, idx, sub), added
	default:
		return a, false // unreachable
	}
}

// amtDel returns a new trie without the entry with id h named name,
// and the removed entry (nil if absent). Emptied levels collapse to
// nil; replaced levels are retired to p.
func amtDel(p *pool, a *amtNode, h uint64, shift uint, name string) (*amtNode, *node) {
	if a == nil {
		return nil, nil
	}
	if shift >= amtMaxShift {
		c, _ := a.slots[0].(*amtCollision)
		for i, e := range c.entries {
			if e.name == name {
				if len(c.entries) == 1 {
					p.retireAMT(a)
					return nil, e
				}
				entries := make([]*node, 0, len(c.entries)-1)
				entries = append(entries, c.entries[:i]...)
				entries = append(entries, c.entries[i+1:]...)
				return a.withSlot(p, 0, &amtCollision{entries: entries}), e
			}
		}
		return a, nil
	}
	bit := uint32(1) << ((h >> shift) & amtMask)
	if a.bitmap&bit == 0 {
		return a, nil
	}
	idx := a.slotIndex(bit)
	switch s := a.slots[idx].(type) {
	case *node:
		if s.hsh != h || s.name != name {
			return a, nil
		}
		return a.withRemove(p, bit), s
	case *amtNode:
		sub, removed := amtDel(p, s, h, shift+amtBits, name)
		if removed == nil {
			return a, nil
		}
		if sub == nil {
			return a.withRemove(p, bit), removed
		}
		return a.withSlot(p, idx, sub), removed
	default:
		return a, nil
	}
}

// amtIter visits every entry in trie order (deterministic for a given
// content, unlike Go map iteration). fn returning false stops the walk.
func amtIter(a *amtNode, fn func(*node) bool) bool {
	if a == nil {
		return true
	}
	for _, s := range a.slots {
		switch e := s.(type) {
		case *node:
			if !fn(e) {
				return false
			}
		case *amtNode:
			if !amtIter(e, fn) {
				return false
			}
		case *amtCollision:
			for _, n := range e.entries {
				if !fn(n) {
					return false
				}
			}
		}
	}
	return true
}

// childByID returns n's direct child by precomputed segment id.
func (n *node) childByID(h uint64, name string) *node {
	if n.kids == nil {
		return nil
	}
	return amtGet(n.kids, h, name)
}

// withChild returns a copy of n with child set (added or replaced),
// counting an added child in nkids. The spine copy and any replaced
// trie levels come from / retire to p; n itself is retired (every
// caller replaces n with the copy in the published tree). A node the
// open commit owns is edited in place instead.
func (n *node) withChild(p *pool, child *node) *node {
	c := n
	if !p.owns(n.edit) {
		c = n.clone(p)
		p.retireNode(n)
	}
	kids, added := amtSet(p, c.kids, 0, child)
	c.kids = kids
	if added {
		c.nkids++
	}
	return c
}

// withoutChild returns a copy of n with the child with id h named name
// removed, plus the removed child (nil, nil if absent). n is retired
// on success.
func (n *node) withoutChild(p *pool, name string, h uint64) (*node, *node) {
	if n.kids == nil {
		return nil, nil
	}
	kids, removed := amtDel(p, n.kids, h, 0, name)
	if removed == nil {
		return nil, nil
	}
	c := n.clone(p)
	c.kids = kids
	c.nkids--
	p.retireNode(n)
	return c, removed
}

// eachChild iterates n's direct children.
func (n *node) eachChild(fn func(*node) bool) {
	amtIter(n.kids, fn)
}

// appendChildren appends every child of n to dst in trie (hash)
// order. It exists alongside eachChild for hot paths: a collecting
// callback closes over its destination and Go heap-allocates the
// closure per call, while this plain recursion allocates nothing.
func appendChildren(a *amtNode, dst []*node) []*node {
	if a == nil {
		return dst
	}
	for _, s := range a.slots {
		switch c := s.(type) {
		case *node:
			dst = append(dst, c)
		case *amtNode:
			dst = appendChildren(c, dst)
		case *amtCollision:
			dst = append(dst, c.entries...)
		}
	}
	return dst
}

// countNodes returns the node count of n's subtree, n included: what
// Rm charges and what the serializers presize for. eachChild's
// callback does not escape, so the walk allocates nothing.
func countNodes(n *node) int {
	count := 1
	n.eachChild(func(c *node) bool {
		count += countNodes(c)
		return true
	})
	return count
}
