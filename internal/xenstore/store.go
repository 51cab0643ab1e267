// Package xenstore implements the centralized registry that stock Xen
// builds its control plane on (paper §4.1/§4.2) — the component
// LightVM removes. It is a real hierarchical store: a tree of nodes
// with values, per-node generation counters, prefix watches, and
// transactions that fail and retry on conflict.
//
// The tree is immutable and structurally shared (see tree.go): every
// mutation builds a new root by copying only the spine and publishes
// it with one atomic pointer store. Store.Snapshot is therefore an
// O(1) root capture, and snapshots stay frozen forever while the live
// tree keeps moving — the basis of the O(1) checkpoint/clone paths in
// internal/migrate and internal/toolstack.
//
// Every operation charges the virtual clock the paper's message cost:
// "each operation requires sending a message and receiving an
// acknowledgment, each triggering a software interrupt: a single read
// or write thus triggers at least two, and most often four, software
// interrupts and multiple domain changes" (§4.2). On top of that, the
// store charges for the nodes it actually touches (path resolution,
// directory listing, commit validation, watch matching), which is what
// makes creation cost grow with the number of guests, and it appends
// to 20 access-log files that rotate every 13,215 lines — the spikes
// in Fig. 5 and Fig. 9.
//
// Concurrency contract: mutations (and clock-charging reads) stay
// single-threaded, like the real single-threaded oxenstored event
// loop and like the rest of the simulation, which shares one
// sim.Clock per timeline. Snapshot is the exception: it only loads
// the atomically-published root, so any goroutine may take and read
// snapshots while the owning timeline keeps mutating.
//
// Hot-path structure (profile-guided; DESIGN.md §9): path segments are
// hashed once while the path is being split (hashIter) and compared as
// 64-bit ids from then on; spine copies recycle through the store's
// pool (pool.go); operations bracket themselves with enter/exit so
// recycling stays safe across the re-entrant clock charge.
package xenstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"lightvm/internal/costs"
	"lightvm/internal/faults"
	"lightvm/internal/sim"
)

// Errors.
var (
	ErrNoEnt  = errors.New("xenstore: no such node")
	ErrAgain  = errors.New("xenstore: transaction conflict, retry")
	ErrBadTxn = errors.New("xenstore: no such transaction")
	ErrExists = errors.New("xenstore: node exists")
	// ErrTxnRetriesExhausted is returned by Store.Txn when a body keeps
	// conflicting past its retry budget; it wraps ErrAgain, so callers
	// can match either the exhaustion or the underlying conflict.
	ErrTxnRetriesExhausted = errors.New("xenstore: transaction retries exhausted")

	errRmRoot = errors.New("xenstore: cannot remove root")
)

// noEntError is the concrete miss error. The hot paths used to build
// it with fmt.Errorf("%w: %s", ...) — several allocations per miss,
// and transaction observes produced (and discarded) one per absent
// node. This type defers all formatting to Error() and still matches
// errors.Is(err, ErrNoEnt) via Unwrap.
type noEntError struct{ path string }

func (e *noEntError) Error() string { return "xenstore: no such node: " + e.path }
func (e *noEntError) Unwrap() error { return ErrNoEnt }

// Counters aggregates store activity for tests and Fig. 5 attribution.
type Counters struct {
	Ops          uint64
	SoftIRQs     uint64
	Crossings    uint64
	NodesTouched uint64
	WatchFires   uint64
	TxnStarts    uint64
	TxnCommits   uint64
	TxnConflicts uint64
	LogLines     uint64
	LogRotations uint64
	UniqScans    uint64
	// Snapshots counts O(1) root captures. It is incremented atomically
	// (Snapshot may be called from any goroutine) and must be read with
	// atomic.LoadUint64 while snapshotters are live.
	Snapshots uint64
	// Stalls counts injected store-daemon freezes (fault plane).
	Stalls uint64
	// InjectedConflicts counts commits aborted by the fault plane
	// (a subset of TxnConflicts).
	InjectedConflicts uint64
}

// treeState is one published version of the store: the immutable root
// plus the generation counter it was published at. Root and generation
// travel together so Snapshot captures a consistent pair. birth is the
// snapshot epoch at allocation (treeStates recycle through the pool
// under the same epoch rule as nodes).
type treeState struct {
	root  *node
	gen   uint64
	birth uint64
}

// Store is the oxenstored-equivalent.
type Store struct {
	clock *sim.Clock
	state atomic.Pointer[treeState]
	gen   uint64 // mutator-side generation counter (mirrored into state)

	// snapEpoch is bumped by Snapshot *before* it loads the root; the
	// pool recycles only objects whose lifetime saw no bump (pool.go).
	snapEpoch atomic.Uint64
	pl        *pool
	// pubs counts publishes. Reads use it to skip their
	// end-of-round-trip re-resolve when nothing was published during
	// the charge.
	pubs uint64

	// resCache memoizes the most recent resolve against the current
	// publish count: toolstack flows re-read one path hundreds of
	// times between mutations (libxl's state re-reads), and each hit
	// skips the physical trie walk while still charging the identical
	// modeled cost. pubs is monotonic, so a hit can never alias a
	// recycled root pointer.
	resCachePubs    uint64
	resCachePath    string
	resCacheNode    *node
	resCacheTouched int

	watches   []*watch
	nextWatch int
	// watchIndex buckets watches by their full normalized prefix: the
	// watches matching a write are exactly those registered on one of
	// the written path's ancestors, so delivery looks up O(depth)
	// buckets instead of scanning every registered watch. rootWatches
	// holds watches on "/" (they match every path).
	watchIndex  map[string][]*watch
	rootWatches []*watch
	// watchDepths[d] counts the indexed watches whose prefix has depth
	// d (d '/'s); its last entry is non-zero, so delivery probes
	// watchIndex only at watched depths and stops past the deepest.
	watchDepths []int
	// Watch delivery scratch (watch.go), one slot per fire-nesting
	// depth: fireBufs holds the merged candidate list and mergeBufs the
	// buckets being merged by registration id.
	fireBufs  [][]*watch
	mergeBufs [][][]*watch
	fireDepth int

	// Transactions: open set and recycled txn structs (txn.go).
	openTxns []*txn
	freeTxns []*txn
	nextTxn  TxnID

	// Logging: one logical line counter stands in for the 20 files
	// (they rotate together).
	LoggingEnabled bool
	logLines       int

	// Connections is the number of open store connections (one per
	// running guest with a xenbus ring, plus Dom0 daemons). The store
	// daemon's event loop scans every connection per operation, so
	// each op pays Connections × costs.XSPerConnection. The toolstack
	// maintains this count as guests come and go.
	Connections int

	// Faults, when non-nil, lets the fault plane stall operations and
	// abort transaction commits (faults.KindStoreStall /
	// faults.KindTxnConflict). Nil costs one pointer check per op.
	Faults *faults.Injector

	// variant selects oxenstored (default) or the slower cxenstored.
	variant Variant

	Count Counters
}

// New creates an empty store on clock with access logging enabled
// (the stock oxenstored configuration).
func New(clock *sim.Clock) *Store {
	s := &Store{clock: clock, LoggingEnabled: true}
	s.pl = newPool(&s.snapEpoch)
	s.state.Store(&treeState{root: &node{name: "/", hsh: nameHash("/")}})
	return s
}

// loaded returns the current published tree version.
func (s *Store) loaded() *treeState { return s.state.Load() }

// publish installs root as the current tree version. Mutator-side
// only; concurrent snapshotters observe either the old or the new
// version, never a mix. The replaced version is retired to the pool.
func (s *Store) publish(root *node) {
	ts := s.pl.getTS()
	ts.root, ts.gen = root, s.gen
	s.pl.retireTS(s.state.Swap(ts))
	s.pubs++
}

// enter/exit bracket every public operation so pool recycling is
// deferred past the operation's own node references and past any
// nested operations run by clock callbacks mid-charge (pool.go).
func (s *Store) enter() { s.pl.enter() }
func (s *Store) exit()  { s.pl.exit() }

// segIter walks a path's components without allocating: "/a/b/c"
// yields "a", "b", "c" as substrings of the input.
type segIter struct {
	rest string
}

// segments returns an iterator over path's components.
func segments(path string) segIter {
	return segIter{rest: strings.Trim(path, "/")}
}

// next returns the following component, or ok=false at the end. Empty
// components ("//" runs) are skipped, so every node name the store ever
// creates is a valid segment — which keeps snapshot serialization
// canonical for any reachable tree (FuzzPath leans on this).
func (it *segIter) next() (seg string, ok bool) {
	for {
		if it.rest == "" {
			return "", false
		}
		if i := strings.IndexByte(it.rest, '/'); i >= 0 {
			seg, it.rest = it.rest[:i], it.rest[i+1:]
		} else {
			seg, it.rest = it.rest, ""
		}
		if seg != "" {
			return seg, true
		}
	}
}

// hashIter is segIter fused with segment interning: it yields each
// component together with its 64-bit FNV-1a id, computed in the same
// pass that finds the separators. Resolution and spine rebuilds are the
// store's hottest loops; they descend the trie on the id and only
// touch the segment string to guard against full-hash collisions.
type hashIter struct {
	rest string
}

// hashSegments returns a hashing iterator over path's components.
func hashSegments(path string) hashIter {
	i, j := 0, len(path)
	for i < j && path[i] == '/' {
		i++
	}
	for j > i && path[j-1] == '/' {
		j--
	}
	return hashIter{rest: path[i:j]}
}

// next returns the following component and its segment id. One byte
// loop both hashes the segment and finds the '/' that ends it.
func (it *hashIter) next() (seg string, h uint64, ok bool) {
	for rest := it.rest; rest != ""; {
		h = fnvOffset64
		k := 0
		for ; k < len(rest) && rest[k] != '/'; k++ {
			h ^= uint64(rest[k])
			h *= fnvPrime64
		}
		seg = rest[:k]
		if k < len(rest) {
			rest = rest[k+1:]
		} else {
			rest = ""
		}
		if seg != "" {
			it.rest = rest
			return seg, h, true
		}
	}
	it.rest = ""
	return "", 0, false
}

// chargeOp accounts one protocol round trip plus extra node touches.
func (s *Store) chargeOp(nodesTouched int) {
	s.Count.Ops++
	s.Count.SoftIRQs += costs.XSRequestInterrupts
	s.Count.Crossings += costs.XSRequestCrossings
	s.Count.NodesTouched += uint64(nodesTouched)
	d := costs.XSRequestInterrupts*costs.SoftIRQ +
		costs.XSRequestCrossings*costs.DomainCrossing +
		costs.XSProcess +
		sim.Duration(nodesTouched)*costs.XSPerNodeTouch +
		sim.Duration(s.Connections)*costs.XSPerConnection
	d += s.variantExtra(costs.XSProcess + sim.Duration(nodesTouched)*costs.XSPerNodeTouch)
	if s.Faults.Fire(faults.KindStoreStall) {
		// The store daemon freezes (GC pause, log fsync, scheduling
		// gap): the requesting client simply sees a slow reply.
		s.Count.Stalls++
		d += costs.XSStoreStall
	}
	s.clock.Sleep(d)
	s.logAccess()
}

// logAccess appends one line to each of the 20 access logs and rotates
// them at the threshold, charging the rotation pause.
func (s *Store) logAccess() {
	if !s.LoggingEnabled {
		return
	}
	s.logLines++
	s.Count.LogLines += costs.XSLogFiles
	s.clock.Sleep(costs.XSLogFiles * costs.XSLogLine)
	if s.logLines >= costs.XSLogRotateLines {
		s.logLines = 0
		s.Count.LogRotations++
		s.clock.Sleep(costs.XSLogRotateCost)
	}
}

// resolveFrom walks a path from root without allocating, returning the
// node (nil if missing) and the number of nodes visited. Shared by the
// live store and frozen snapshots.
func resolveFrom(root *node, path string) (*node, int) {
	it := hashSegments(path)
	n := root
	touched := 1
	for {
		seg, h, ok := it.next()
		if !ok {
			return n, touched
		}
		child := n.childByID(h, seg)
		if child == nil {
			return nil, touched
		}
		n = child
		touched++
	}
}

// resolve walks a path in the live tree.
func (s *Store) resolve(path string) (*node, int) {
	if s.resCachePubs == s.pubs && s.resCachePath == path && s.resCachePath != "" {
		return s.resCacheNode, s.resCacheTouched
	}
	n, touched := resolveFrom(s.loaded().root, path)
	s.resCachePubs, s.resCachePath = s.pubs, path
	s.resCacheNode, s.resCacheTouched = n, touched
	return n, touched
}

// leafOp describes what a spine rebuild does to the final node. It
// replaces the per-call closure applyWrite used to take — the closure
// captured locals and allocated on every Write; the op struct lives on
// the caller's stack.
type leafOp struct {
	kind  leafKind
	value string // leafValue: the value to set
	repl  *node  // leafReplace: the subtree to install
}

type leafKind int

const (
	// leafEnsure leaves an existing final node untouched (Mkdir).
	leafEnsure leafKind = iota
	// leafValue sets the final node's value with a generation bump.
	leafValue
	// leafReplace swaps in a prepared subtree (GraftSnapshot), retiring
	// whatever was there.
	leafReplace
)

// applyLeaf applies op to the final node of a spine rebuild. A value
// write edits a node the open commit owns in place.
func (s *Store) applyLeaf(n *node, op *leafOp) *node {
	switch op.kind {
	case leafValue:
		c := n
		if !s.pl.owns(n.edit) {
			c = n.clone(s.pl)
			s.pl.retireNode(n)
		}
		c.value = op.value
		s.gen++
		c.gen = s.gen
		return c
	case leafReplace:
		s.pl.retireTree(n)
		return op.repl
	default: // leafEnsure
		return n
	}
}

// applyWrite rebuilds the spine from n down the remaining path,
// creating missing components (gen 0 — see node) and
// applying op to the final node. Generation bumps happen top-down in
// the same order as the historical mutable implementation: a parent's
// generation is bumped at the moment a child is created under it,
// before deeper creations. It returns the new subtree root, the nodes
// visited, and whether any component was created. When op changes
// nothing and nothing was created, the original n is returned
// (pointer-equal), so no-op mutations publish nothing. So is a node
// whose subtree the open commit edited in place: n already holds it.
func (s *Store) applyWrite(n *node, it *hashIter, op *leafOp) (*node, int, bool) {
	seg, h, ok := it.next()
	if !ok {
		return s.applyLeaf(n, op), 1, false
	}
	child := n.childByID(h, seg)
	created := false
	var parentGen uint64
	if child == nil {
		child = s.pl.getNode()
		child.name, child.hsh = seg, h
		s.gen++
		parentGen = s.gen
		created = true
	}
	newChild, touched, deeper := s.applyWrite(child, it, op)
	if newChild == child && !created {
		return n, touched + 1, deeper
	}
	nn := n.withChild(s.pl, newChild)
	if created {
		nn.gen = parentGen
	}
	return nn, touched + 1, created || deeper
}

// Write sets path to value (creating intermediate directories),
// firing matching watches.
func (s *Store) Write(path, value string) {
	s.enter()
	defer s.exit()
	it := hashSegments(path)
	op := leafOp{kind: leafValue, value: value}
	newRoot, touched, _ := s.applyWrite(s.loaded().root, &it, &op)
	s.publish(newRoot)
	s.chargeOp(touched + s.matchCost(path))
	s.fireWatches(path)
}

// Read returns the value at path. The reply carries the value as of
// the END of the charged round trip: clock events that fire during the
// charge (a backend's setup commit, a watch callback) may update the
// node before the reply is delivered, and the client sees that update
// — the behaviour of a store daemon that serializes the reply after
// processing everything ahead of it. Whether the node exists is
// decided at the START of the op (a node appearing mid-charge does not
// turn an ErrNoEnt into a hit). The publish counter makes the common
// case — nothing happened during the charge — free: the second resolve
// runs only when something was actually published.
func (s *Store) Read(path string) (string, error) {
	s.enter()
	defer s.exit()
	n, touched := s.resolve(path)
	pubs := s.pubs
	s.chargeOp(touched)
	if n == nil {
		return "", &noEntError{path}
	}
	if s.pubs != pubs {
		if cur, _ := s.resolve(path); cur != nil {
			return cur.value, nil
		}
	}
	return n.value, nil
}

// Exists reports whether path resolves.
func (s *Store) Exists(path string) bool {
	s.enter()
	defer s.exit()
	n, touched := s.resolve(path)
	s.chargeOp(touched)
	return n != nil
}

// Mkdir creates a directory node.
func (s *Store) Mkdir(path string) {
	s.enter()
	defer s.exit()
	it := hashSegments(path)
	op := leafOp{kind: leafEnsure}
	newRoot, touched, created := s.applyWrite(s.loaded().root, &it, &op)
	if created {
		s.publish(newRoot)
		s.chargeOp(touched + s.matchCost(path))
		s.fireWatches(path)
	} else {
		s.chargeOp(touched)
	}
}

// Directory lists the children of path in sorted order. Listing
// touches every child — this is one of the O(#guests) costs on the
// creation path when listing /local/domain.
func (s *Store) Directory(path string) ([]string, error) {
	return s.DirectoryAppend(path, nil)
}

// DirectoryAppend is Directory appending into buf (sliced to zero
// length first). Callers that list repeatedly — the toolstack lists
// /local/domain on every creation — pass the previous result back in
// so the listing reuses one buffer instead of allocating O(#guests)
// per operation.
func (s *Store) DirectoryAppend(path string, buf []string) ([]string, error) {
	s.enter()
	defer s.exit()
	n, touched := s.resolve(path)
	if n == nil {
		s.chargeOp(touched)
		return nil, &noEntError{path}
	}
	pubs := s.pubs
	s.chargeOp(touched + n.nkids)
	// Like Read, the listing reflects children as of the end of the
	// charge (the cost was fixed at op start).
	if s.pubs != pubs {
		if cur, _ := s.resolve(path); cur != nil {
			n = cur
		}
	}
	out := appendChildNames(n.kids, buf[:0])
	sort.Strings(out)
	return out, nil
}

// appendChildNames collects a trie's entry names into buf. It is a
// plain function (no closure) so a warm buffer makes the listing
// allocation-free.
func appendChildNames(a *amtNode, buf []string) []string {
	if a == nil {
		return buf
	}
	for _, s := range a.slots {
		switch e := s.(type) {
		case *node:
			buf = append(buf, e.name)
		case *amtNode:
			buf = appendChildNames(e, buf)
		case *amtCollision:
			for _, n := range e.entries {
				buf = append(buf, n.name)
			}
		}
	}
	return buf
}

// applyRm rebuilds the spine with the subtree at (remaining path,
// final component leaf) removed. The visited-node count reproduces the
// historical walk exactly: one per ancestor reached, whether or not
// the final component exists.
func (s *Store) applyRm(n *node, it *hashIter, leaf string, leafH uint64) (newN, removed *node, touched int, found bool) {
	next, nextH, more := it.next()
	if !more {
		nn, rm := n.withoutChild(s.pl, leaf, leafH)
		if rm == nil {
			return nil, nil, 1, false
		}
		s.gen++
		nn.gen = s.gen
		return nn, rm, 1, true
	}
	child := n.childByID(leafH, leaf)
	if child == nil {
		return nil, nil, 1, false
	}
	newChild, rm, t, ok := s.applyRm(child, it, next, nextH)
	if !ok {
		return nil, nil, t + 1, false
	}
	return n.withChild(s.pl, newChild), rm, t + 1, true
}

// Rm removes path and its subtree.
func (s *Store) Rm(path string) error {
	s.enter()
	defer s.exit()
	it := hashSegments(path)
	leaf, leafH, ok := it.next()
	if !ok {
		return errRmRoot
	}
	newRoot, removed, touched, found := s.applyRm(s.loaded().root, &it, leaf, leafH)
	if !found {
		s.chargeOp(touched)
		return &noEntError{path}
	}
	rmSize := countNodes(removed)
	s.publish(newRoot)
	// The whole detached subtree is dead unless a snapshot holds it —
	// the pool's epoch check decides.
	s.pl.retireTree(removed)
	s.chargeOp(touched + rmSize + s.matchCost(path))
	s.fireWatches(path)
	return nil
}

// NumNodes reports the total node count, excluding the root
// (diagnostic; grows ~40 per guest with the stock toolstack). It walks
// the whole tree.
func (s *Store) NumNodes() int { return countNodes(s.loaded().root) - 1 }

// WriteUniqueName records a guest name under dir, performing the
// uniqueness check the paper calls out: "the XenStore compares the new
// entry against the names of all other already-running guests before
// accepting the new guest's name" (§4.2). The scan happens inside the
// store daemon (one protocol op from the client's perspective) but its
// cost is linear in the number of registered guests — and the
// comparisons are real.
func (s *Store) WriteUniqueName(dir, key, name string) error {
	s.enter()
	defer s.exit()
	s.Count.UniqScans++
	n, _ := s.resolve(dir)
	if n != nil {
		dup := false
		n.eachChild(func(child *node) bool {
			s.clock.Sleep(costs.XSNameUniquenessPerGuest)
			if child.value == name {
				dup = true
				return false
			}
			return true
		})
		if dup {
			s.chargeOp(n.nkids)
			return fmt.Errorf("%w: name %q", ErrExists, name)
		}
		// The scan touches every registered name whether or not a
		// duplicate turns up (§4.2): accepting a unique name costs the
		// same full comparison pass, so the successful path charges the
		// scan too.
		s.chargeOp(n.nkids)
	}
	s.Write(dir+"/"+key, name)
	return nil
}
