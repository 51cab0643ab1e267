package xenstore

import "sync/atomic"

// Node and trie-level pooling for the mutation path, and the rule
// that decides which objects a mutation may edit in place.
//
// An object is current when the store's own pool drew it since the
// last Store.Snapshot: its ptag is the pool's tag and its birth is the
// pool's snapshot epoch. Nothing but the live tree can reach a current
// object. A snapshot reaches only objects born before the epoch it
// bumped; a graft installs nodes of a snapshot, or of another store,
// which are old or foreign; a decoded tree is unpooled (ptag 0). So
// every mutation (Write, Rm, Mkdir, the graft spine, a transaction
// commit) edits current objects in place and copies only old or
// foreign ones, the way Clojure's transients edit what they own. The
// first write after a snapshot copies its spine once; the copies are
// current, and later writes through them edit them in place. Every
// ancestor of a current object is current too, since a current object
// enters the tree only through its parent, which is made current on
// the way.
//
// Objects a mutation detaches from the live tree — a removed subtree,
// a trie level that outgrew or shrank out of its size bracket, a
// replaced graft destination — retire to the pool, which recycles
// them under three guards:
//
//  1. Provenance (ptag): a pool only recycles objects it allocated.
//     Nodes that arrived by structural sharing from elsewhere —
//     deserialized snapshots, grafts from another store — carry a
//     foreign (or zero) tag and are never touched.
//
//  2. Snapshot epoch (birth): a retired object is recycled only if it
//     is still current. Any object whose lifetime overlapped a
//     snapshot is left for the GC, because that snapshot (or a graft
//     made from it) may reach it forever.
//
//  3. Operation nesting (depth): charging the virtual clock can run
//     scheduled events that re-enter the store (a watch callback
//     writing mid-charge) while the outer operation is still running.
//     Retired objects therefore park in a pending list and are only
//     recycled when the outermost operation exits. An operation that
//     replies after its charge (Read, Directory, WriteUniqueName)
//     takes what its reply needs from its node at op start, since a
//     nested operation may edit that node in place and then remove it.
//
// Trie levels recycle by slot-capacity bracket (amtBrackets: 1, 2, 4,
// 8, 16, 24, 32 slots), one free list per bracket. A level is
// allocated with its bracket's capacity, keeps it for life (an in-place
// insert or removal stays within its bracket, tree.go), and is handed
// back only to a request in the same bracket, so a recycled level
// never rebuilds its slot array and a small directory never keeps a
// wide level's array.
//
// The free lists are bounded (poolMaxFree each) so a burst — one huge
// Rm — cannot pin an arbitrary amount of memory.

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
		return nd
	}
	return &node{ptag: p.tag, birth: p.epoch}
}

// current reports whether an object with provenance ptag and birth
// was drawn from p since the last snapshot, so that only the live tree
// reaches it and a mutation may edit it in place. A nil pool owns
// nothing.
func (p *pool) current(ptag uint32, birth uint64) bool {
	return p != nil && ptag == p.tag && birth == p.epoch
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
		return a
	}
	return &amtNode{ptag: p.tag, birth: p.epoch, slots: make([]any, nslots, amtBrackets[b])}
}

// retireAMT parks a trie level detached from the live tree for
// recycling. Only a current level can be recycled, so any other is
// ignored.
func (p *pool) retireAMT(a *amtNode) {
	if a != nil && p.current(a.ptag, a.birth) {
		p.pendA = append(p.pendA, a)
	}
}

// retireTree parks an entire removed subtree: the nodes and the trie
// levels beneath them. Rm and GraftSnapshot displace whole subtrees;
// without this walk their nodes would always be GC work even when no
// snapshot can see them. The walk stops at old or foreign objects:
// nothing below one is current.
func (p *pool) retireTree(n *node) {
	if n == nil || !p.current(n.ptag, n.birth) {
		return
	}
	p.retireAMTTree(n.kids)
	p.pendN = append(p.pendN, n)
}

func (p *pool) retireAMTTree(a *amtNode) {
	if a == nil || !p.current(a.ptag, a.birth) {
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
	p.pendA = append(p.pendA, a)
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

// flush recycles pending retirements that are still current, and
// abandons the rest to the GC.
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
