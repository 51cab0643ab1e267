package xenstore

import "sync/atomic"

// Node and trie-level pooling for the mutation path.
//
// Every Write/Rm/graft copies the spine of the immutable tree — that
// is the price of O(1) snapshots — and before this pool existed, every
// copy was a fresh heap allocation and every replaced spine became GC
// work. The profile attributed ~60% of fig12a's allocations to exactly
// those spine copies (node.clone, amtNode.withSlot/withInsert). The
// pool closes the loop: the mutation path retires the objects it
// replaces and draws replacements from a free list.
//
// Recycling a node from an immutable, structurally-shared tree is only
// sound if nothing can still reach the retired object. Three guards
// make it COW-safe:
//
//  1. Provenance (ptag): a pool only recycles objects it allocated.
//     Nodes that arrived by structural sharing from elsewhere —
//     deserialized snapshots, grafts from another store — carry a
//     foreign (or zero) tag and are never touched.
//
//  2. Snapshot epoch (birth): Store.Snapshot bumps the pool's snapshot
//     epoch (see snapshot.go), and a retired object is recycled only
//     if the epoch still equals the one recorded at its allocation.
//     Any object whose lifetime overlapped a snapshot is left for the
//     GC, because that snapshot (or a graft made from it) may reach it
//     forever. This is also what keeps self-grafts sound: a subtree
//     can only become doubly-referenced via a snapshot, and taking that
//     snapshot permanently excludes its nodes from reuse.
//
//  3. Operation nesting (depth): charging the virtual clock can run
//     scheduled events that re-enter the store (a watch callback
//     writing mid-charge), while the outer operation still holds
//     pointers into the pre-mutation tree (Store.Read keeps its
//     resolved node across the charge). Retired objects therefore
//     park in a pending list and are only recycled when the outermost
//     operation exits.
//
// Trie levels recycle by slot-capacity bracket (amtBrackets: 1, 2, 4,
// 8, 16, 24, 32 slots), one free list per bracket. A level is
// allocated with its bracket's capacity, keeps it for life (an in-place
// insert grows it only within that capacity, tree.go), and is handed
// back only to a request in the same bracket, so a recycled level
// never rebuilds its slot array and a small directory never keeps a
// wide level's array.
//
// The free lists are bounded (poolMaxFree each) so a burst — one huge
// Rm — cannot pin an arbitrary amount of memory.
//
// The pool also scopes a transaction commit's in-place edits (txn.go).
// Between beginEdit and endEdit every object it hands out carries the
// commit's edit tag, and owns reports exactly those objects: nothing
// has published them yet, so the commit may mutate them instead of
// copying them again for its next write, in the way Clojure's
// transients work. endEdit untags them all before the commit publishes
// its root, so no object reachable from a published root — a
// snapshot's, or one grafted back from a snapshot — ever carries a tag
// a later commit could match, however the tag counter wraps.

const poolMaxFree = 8192

// pool is a Store's allocation recycler. Like the store, only the
// goroutine that owns the store's timeline touches it.
type pool struct {
	tag   uint32 // unique per store; 0 is reserved for "unpooled"
	epoch uint64 // snapshot epoch: bumped by every Store.Snapshot

	freeN []*node
	freeA [len(amtBrackets)][]*amtNode // by slot-capacity bracket

	// Objects retired by in-flight operations, recycled at depth 0.
	pendN []*node
	pendA []*amtNode

	depth int

	// edit is the open commit's tag (0 outside a commit); lastEdit
	// issues tags. ownN/ownA list the objects stamped with edit, for
	// endEdit to untag.
	edit, lastEdit uint32
	ownN           []*node
	ownA           []*amtNode
}

// poolTags hands out store-unique pool tags (stores can live on
// different goroutines, so the counter is atomic).
var poolTags atomic.Uint32

func newPool() *pool {
	return &pool{tag: poolTags.Add(1)}
}

// getNode returns a zeroed node stamped with the pool's provenance.
// A nil pool (deserialization, tests) falls back to plain allocation.
func (p *pool) getNode() *node {
	if p == nil {
		return &node{}
	}
	if n := len(p.freeN); n > 0 {
		nd := p.freeN[n-1]
		p.freeN[n-1] = nil
		p.freeN = p.freeN[:n-1]
		nd.birth = p.epoch
		p.stampNode(nd)
		return nd
	}
	nd := &node{ptag: p.tag, birth: p.epoch}
	p.stampNode(nd)
	return nd
}

// stampNode tags nd as owned by the open commit, if there is one.
func (p *pool) stampNode(nd *node) {
	if p.edit != 0 {
		nd.edit = p.edit
		p.ownN = append(p.ownN, nd)
	}
}

// stampAMT is stampNode for trie levels.
func (p *pool) stampAMT(a *amtNode) {
	if p.edit != 0 {
		a.edit = p.edit
		p.ownA = append(p.ownA, a)
	}
}

// owns reports whether an object with edit tag edit was drawn by the
// open commit and may be edited in place. Published objects carry 0.
func (p *pool) owns(edit uint32) bool {
	return edit != 0 && p != nil && edit == p.edit
}

// beginEdit opens a commit's in-place edit window under a fresh tag.
// The counter skips 0, which marks objects no commit owns.
func (p *pool) beginEdit() {
	if p.lastEdit++; p.lastEdit == 0 {
		p.lastEdit = 1
	}
	p.edit = p.lastEdit
}

// endEdit closes the window: every object the commit drew goes back
// to untagged, so once its root is published nothing can edit it.
func (p *pool) endEdit() {
	for i, n := range p.ownN {
		n.edit = 0
		p.ownN[i] = nil
	}
	p.ownN = p.ownN[:0]
	for i, a := range p.ownA {
		a.edit = 0
		p.ownA[i] = nil
	}
	p.ownA = p.ownA[:0]
	p.edit = 0
}

// amtBrackets are the slot capacities trie levels are allocated with.
// Most directories hold at most 8 children, so the small sizes get
// their own brackets; wide directories such as /local/domain fill
// levels up to the 32-slot trie width.
var amtBrackets = [...]int{1, 2, 4, 8, 16, 24, 32}

// amtBracketOf maps a slot count (0–32) to its bracket index in
// amtBrackets: the smallest bracket that holds it.
var amtBracketOf = func() (t [amtWidth + 1]uint8) {
	b := 0
	for n := range t {
		if n > amtBrackets[b] {
			b++
		}
		t[n] = uint8(b)
	}
	return t
}()

// getAMT returns a trie level with exactly nslots slots and its
// bracket's capacity, reusing a retired level of the same bracket when
// there is one.
func (p *pool) getAMT(nslots int) *amtNode {
	b := amtBracketOf[nslots]
	if p == nil {
		return &amtNode{slots: make([]any, nslots, amtBrackets[b])}
	}
	free := p.freeA[b]
	if n := len(free); n > 0 {
		a := free[n-1]
		free[n-1] = nil
		p.freeA[b] = free[:n-1]
		a.slots = a.slots[:nslots]
		a.birth = p.epoch
		p.stampAMT(a)
		return a
	}
	a := &amtNode{ptag: p.tag, birth: p.epoch, slots: make([]any, nslots, amtBrackets[b])}
	p.stampAMT(a)
	return a
}

// retireNode parks a replaced node for recycling. Foreign or unpooled
// nodes are ignored.
func (p *pool) retireNode(n *node) {
	if p == nil || n == nil || n.ptag != p.tag {
		return
	}
	p.pendN = append(p.pendN, n)
}

// retireAMT parks a replaced trie level.
func (p *pool) retireAMT(a *amtNode) {
	if p == nil || a == nil || a.ptag != p.tag {
		return
	}
	p.pendA = append(p.pendA, a)
}

// retireTree parks an entire removed subtree: the nodes and the trie
// levels beneath them. Rm and GraftSnapshot displace whole subtrees;
// without this walk their nodes would always be GC work even when no
// snapshot can see them.
func (p *pool) retireTree(n *node) {
	if p == nil || n == nil {
		return
	}
	p.retireAMTTree(n.kids)
	p.retireNode(n)
}

func (p *pool) retireAMTTree(a *amtNode) {
	if a == nil {
		return
	}
	for _, s := range a.slots {
		switch e := s.(type) {
		case *node:
			p.retireTree(e)
		case *amtNode:
			p.retireAMTTree(e)
		case *amtCollision:
			for _, n := range e.entries {
				p.retireTree(n)
			}
		}
	}
	p.retireAMT(a)
}

// enter/exit bracket one public store operation. Nested operations
// (clock callbacks re-entering the store mid-charge) stack; pending
// retirements are only recycled when the outermost operation leaves.
func (p *pool) enter() { p.depth++ }

func (p *pool) exit() {
	if p.depth--; p.depth == 0 && (len(p.pendN) > 0 || len(p.pendA) > 0) {
		p.flush()
	}
}

// flush recycles pending retirements whose lifetime did not overlap a
// snapshot, and abandons the rest to the GC.
func (p *pool) flush() {
	e := p.epoch
	for i, n := range p.pendN {
		p.pendN[i] = nil
		if n.birth == e && len(p.freeN) < poolMaxFree {
			tag := n.ptag
			*n = node{ptag: tag}
			p.freeN = append(p.freeN, n)
		}
	}
	p.pendN = p.pendN[:0]
	for i, a := range p.pendA {
		p.pendA[i] = nil
		if b := amtBracketOf[cap(a.slots)]; a.birth == e && len(p.freeA[b]) < poolMaxFree {
			slots := a.slots[:0]
			for j := range a.slots {
				a.slots[j] = nil // unpin whatever the dead level referenced
			}
			*a = amtNode{ptag: p.tag, slots: slots}
			p.freeA[b] = append(p.freeA[b], a)
		}
	}
	p.pendA = p.pendA[:0]
}
