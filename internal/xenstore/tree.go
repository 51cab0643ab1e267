package xenstore

import "math/bits"

// The store's state is a structurally-shared tree. A mutation (write,
// rm, mkdir, graft, transaction commit) edits in place every node and
// trie level on its path that the store's pool drew since the last
// snapshot, and copies the rest — old or foreign objects, which a
// snapshot or another store may reach (pool.go's current rule). A
// copy goes in place of its original in the parent, which is current
// by then, so everything hanging off the spine stays shared with
// whatever reached the original.
//
// That is what keeps Store.Snapshot O(1): a snapshot is just the
// current root pointer, and taking it bumps the pool's snapshot epoch,
// so every object it captured is old from then on and no mutation can
// edit it. The first write after a snapshot copies its spine once, and
// later writes edit those copies in place.
//
// Each node's children live in a persistent hash-array-mapped trie
// (HAMT) keyed by the child name's FNV-1a hash, 5 bits of hash per
// level. Copying a directory on the spine therefore costs
// O(log32 fanout) small arrays instead of O(fanout): /local/domain
// with 8000 guests copies two ~32-slot arrays, not an 8000-entry map.
//
// Hot-path mechanics (profile-guided, see DESIGN.md §9):
//
//   - every node carries its segment's 64-bit FNV id (hsh), computed
//     once at creation; trie descent and spine copies compare and key
//     on that integer and never re-hash the name string;
//   - spine copies draw node and trie-level objects from the owning
//     store's pool (pool.go), and what a mutation detaches from the
//     live tree retires to it, so steady-state churn recycles its own
//     garbage instead of feeding the GC. Retirement is COW-safe:
//     anything a snapshot could have captured is never reused;
//   - a trie level's slot array has its size bracket's capacity
//     (1, 2, 4, 8, 16, 24 or 32 slots) for life: it is recycled only
//     within that bracket, and an in-place insert or removal never
//     moves it out of that bracket;
//   - a node created under a store vocabulary word (internTab) takes
//     the shared interned name, not a substring of the written path,
//     so a live node does not keep its writer's whole path alive.
//
// The helpers below take an optional *pool; nil (deserialization,
// tests) falls back to plain allocation, edits nothing in place and
// retires nothing.

// node is one store node. The zero gen means "never
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
	// allocation. Only its own pool edits or recycles a node, and only
	// while no snapshot was taken during its lifetime.
	ptag  uint32
	birth uint64
}

// clone returns a current copy of n drawn from p (plain allocation
// when p is nil). The original is never touched and never retired: a
// node is cloned because a snapshot or another store may reach it.
func (n *node) clone(p *pool) *node {
	c := p.getNode()
	ptag, birth := c.ptag, c.birth
	*c = *n
	c.ptag, c.birth = ptag, birth
	return c
}

// own returns n itself when p may edit it in place, and a copy to
// edit otherwise.
func (n *node) own(p *pool) *node {
	if p.current(n.ptag, n.birth) {
		return n
	}
	return n.clone(p)
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
// amtMaxShift, slots hold *amtCollision. ptag/birth mirror node's pool
// provenance.
type amtNode struct {
	bitmap uint32
	ptag   uint32
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

// withSlot returns a with the packed slot at idx replaced: a itself
// when it is current (pool.go), a copy otherwise.
func (a *amtNode) withSlot(p *pool, idx int, s any) *amtNode {
	if !p.current(a.ptag, a.birth) {
		c := p.getAMT(len(a.slots))
		c.bitmap = a.bitmap
		copy(c.slots, a.slots)
		a = c
	}
	a.slots[idx] = s
	return a
}

// withInsert returns a with a new bit set and slot inserted. A current
// level is edited in place while its slot array has room; a full one
// is copied into the next bracket (pool.go) and retired, so no level's
// array ever regrows outside the bracket it was allocated for.
func (a *amtNode) withInsert(p *pool, bit uint32, s any) *amtNode {
	idx := a.slotIndex(bit)
	if p.current(a.ptag, a.birth) && len(a.slots) < cap(a.slots) {
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

// withRemove returns a with a bit cleared and its slot dropped (nil
// when the level empties, retiring it). A current level is edited in
// place while its remaining slots stay in its bracket; otherwise the
// rest is copied into a level of their own bracket and a is retired.
func (a *amtNode) withRemove(p *pool, bit uint32) *amtNode {
	if a.bitmap == bit {
		p.retireAMT(a)
		return nil
	}
	idx, n := a.slotIndex(bit), len(a.slots)-1
	if p.current(a.ptag, a.birth) && amtBracketOf[n] == amtBracketOf[len(a.slots)] {
		a.bitmap &^= bit
		copy(a.slots[idx:], a.slots[idx+1:])
		a.slots[n] = nil
		a.slots = a.slots[:n]
		return a
	}
	c := p.getAMT(n)
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

// amtSet returns the trie with child present under its id (hsh),
// reporting whether the entry is new (vs replaced). The replaced entry
// node is not retired (the caller owns that decision).
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

// amtDel returns the trie without the entry with id h named name, and
// the removed entry (nil if absent). Emptied levels collapse to nil
// and retire to p.
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

// withChild returns n with child set (added or replaced), counting an
// added child in nkids: n itself when it is current, a copy drawn from
// p otherwise.
func (n *node) withChild(p *pool, child *node) *node {
	c := n.own(p)
	kids, added := amtSet(p, c.kids, 0, child)
	c.kids = kids
	if added {
		c.nkids++
	}
	return c
}

// withoutChild returns n with the child with id h named name removed
// (n itself when it is current, a copy otherwise), plus the removed
// child (nil, nil if absent).
func (n *node) withoutChild(p *pool, name string, h uint64) (*node, *node) {
	if n.kids == nil {
		return nil, nil
	}
	kids, removed := amtDel(p, n.kids, h, 0, name)
	if removed == nil {
		return nil, nil
	}
	c := n.own(p)
	c.kids = kids
	c.nkids--
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
