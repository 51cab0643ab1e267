// Package xenstore implements the centralized registry that stock Xen
// builds its control plane on (paper §4.1/§4.2) — the component
// LightVM removes. It is a real hierarchical store: a tree of nodes
// with values, per-node generation counters, prefix watches, and
// transactions that fail and retry on conflict.
//
// The tree is structurally shared (see tree.go): a mutation edits in
// place what only the live tree can reach and copies what a snapshot
// may hold, then publishes the root. Store.Snapshot is therefore an
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
// Concurrency: a store belongs to one timeline and only the goroutine
// that owns the timeline uses it — snapshots included — like the real
// single-threaded oxenstored event loop and like the sim.Clock the
// timeline shares.
//
// Hot-path structure (profile-guided; DESIGN.md §9): path segments are
// hashed once while the path is being split (hashIter) and compared as
// 64-bit ids from then on; mutations edit current nodes in place and
// recycle detached ones through the store's pool (pool.go); operations
// bracket themselves with enter/exit so recycling stays safe across
// the re-entrant clock charge. Reads whose reply nobody uses
// (ChargeReads) charge a run of identical round trips with one clock
// advance when no queued event falls inside it, updating the counters
// and the access log by arithmetic.
package xenstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"

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
//
// A directory-relative miss keeps its directory and relative path and
// joins them only if the message is asked for.
type noEntError struct{ path, dir, rel string }

func (e *noEntError) Error() string {
	if e.path == "" {
		return string(appendPath([]byte("xenstore: no such node: "), e.dir, e.rel))
	}
	return "xenstore: no such node: " + e.path
}
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
	// Snapshots counts O(1) root captures (Snapshot) and subtree
	// serializations (SerializeSubtree).
	Snapshots uint64
	// Stalls counts injected store-daemon freezes (fault plane).
	Stalls uint64
	// InjectedConflicts counts commits aborted by the fault plane
	// (a subset of TxnConflicts).
	InjectedConflicts uint64
}

// Store is the oxenstored-equivalent.
type Store struct {
	clock *sim.Clock
	root  *node  // the published tree
	gen   uint64 // the last node generation issued
	pl    *pool
	// pubs counts publishes. Reads use it to skip their
	// end-of-round-trip re-resolve when nothing was published during
	// the charge.
	pubs uint64

	// resCache memoizes the most recent resolve against the current
	// publish count, at two levels: the directory and the node under
	// it. Toolstack flows re-read one path hundreds of times between
	// mutations (libxl's state re-reads) and read several leaves of one
	// device directory in a row; a hit skips the physical trie walk of
	// what it covers while still charging the identical modeled cost.
	// pubs is monotonic, so a hit can never alias a recycled root
	// pointer.
	resCacheOK         bool
	resCachePubs       uint64
	resCacheDir        string
	resCacheDirNode    *node
	resCacheDirTouched int
	resCacheLeafOK     bool
	resCacheRel        string
	resCacheNode       *node
	resCacheTouched    int

	// pathBuf is scratch for joining a directory-relative path: watch
	// delivery looks its ancestors up in it, and write sets compare
	// paths in it, without building a string (watch.go, txn.go).
	pathBuf []byte

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

	// Transactions: recycled txn structs (txn.go).
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
	return &Store{
		clock:          clock,
		root:           &node{name: "/", hsh: nameHash("/")},
		pl:             newPool(),
		LoggingEnabled: true,
	}
}

// publish installs root as the current tree version.
func (s *Store) publish(root *node) {
	s.root = root
	s.pubs++
}

// enter/exit bracket every public operation so pool recycling is
// deferred past the operation's own node references and past any
// nested operations run by clock callbacks mid-charge (pool.go).
func (s *Store) enter() { s.pl.enter() }
func (s *Store) exit()  { s.pl.exit() }

// hashIter walks a path's components without allocating: "/a/b/c"
// yields "a", "b", "c" as substrings of the input, each with its 64-bit
// FNV-1a id, computed in the same pass that finds the separators.
// Resolution and spine rebuilds are the store's hottest loops; they
// descend the trie on the id and only touch the segment string to
// guard against full-hash collisions.
//
// A directory-relative op iterates its directory, then tail: the
// components of the path relative to it.
type hashIter struct {
	rest, tail string
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

// hashSegmentsAt iterates the components of dir, then those of rel.
func hashSegmentsAt(dir, rel string) hashIter {
	return hashIter{rest: dir, tail: rel}
}

// next returns the following component and its segment id, or ok=false
// at the end. One byte loop both hashes the segment and finds the '/'
// that ends it. Empty components ("//" runs) are skipped, so every node
// name the store ever creates is a valid segment — which keeps snapshot
// serialization canonical for any reachable tree (FuzzPath leans on
// this).
func (it *hashIter) next() (seg string, h uint64, ok bool) {
	for {
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
		if it.tail == "" {
			it.rest = ""
			return "", 0, false
		}
		it.rest, it.tail = it.tail, ""
	}
}

// splitPath splits path at its last '/' into the directory and the
// final component, both substrings: every store op resolves a path as
// a directory plus the path relative to it. A path without a parent
// component splits into the root ("") and itself.
func splitPath(path string) (dir, rel string) {
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return "", path
	}
	return path[:i], path[i+1:]
}

// splitAt normalizes the arguments of a directory-relative op: a
// normalized directory and rel without leading or trailing '/'. Both
// stay substrings of the caller's strings when already in that form.
func splitAt(dir, rel string) (string, string) {
	return normalize(dir), strings.Trim(rel, "/")
}

// pathLen is the length of the text appendPath appends for rel under
// dir.
func pathLen(dir, rel string) int {
	switch {
	case rel == "" && dir == "":
		return 1
	case rel == "":
		return len(dir)
	case dir == "/":
		return 1 + len(rel)
	}
	return len(dir) + 1 + len(rel)
}

// appendPath appends the text of rel joined under dir: dir + "/" +
// rel, where the root ("" or "/") contributes no extra slash and an
// empty rel names dir itself.
func appendPath(b []byte, dir, rel string) []byte {
	switch {
	case rel == "" && dir == "":
		return append(b, '/')
	case rel == "":
		return append(b, dir...)
	case dir != "/":
		b = append(b, dir...)
	}
	b = append(b, '/')
	return append(b, rel...)
}

// chargeOp accounts one protocol round trip plus extra node touches.
func (s *Store) chargeOp(nodesTouched int) {
	s.Count.Ops++
	s.Count.SoftIRQs += costs.XSRequestInterrupts
	s.Count.Crossings += costs.XSRequestCrossings
	s.Count.NodesTouched += uint64(nodesTouched)
	d := s.opCost(nodesTouched)
	if s.Faults.Fire(faults.KindStoreStall) {
		// The store daemon freezes (GC pause, log fsync, scheduling
		// gap): the requesting client simply sees a slow reply.
		s.Count.Stalls++
		d += costs.XSStoreStall
	}
	s.clock.Sleep(d)
	s.logAccess()
}

// opCost is the clock charge of one round trip touching nodesTouched
// nodes, before any injected stall and the access-log lines.
func (s *Store) opCost(nodesTouched int) sim.Duration {
	d := costs.XSRequestInterrupts*costs.SoftIRQ +
		costs.XSRequestCrossings*costs.DomainCrossing +
		costs.XSProcess +
		sim.Duration(nodesTouched)*costs.XSPerNodeTouch +
		sim.Duration(s.Connections)*costs.XSPerConnection
	return d + s.variantExtra(costs.XSProcess+sim.Duration(nodesTouched)*costs.XSPerNodeTouch)
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
	return s.resolveAt(splitPath(path))
}

// resolveAt walks rel under dir in the live tree, returning the node
// (nil if missing) and the nodes visited: the count a walk of the
// joined path from the root gives, a miss included. The directory is
// resolved from the root only when it is not the one resolved last
// since the last publish.
func (s *Store) resolveAt(dir, rel string) (*node, int) {
	if !s.resCacheOK || s.resCachePubs != s.pubs || s.resCacheDir != dir {
		s.resCacheDirNode, s.resCacheDirTouched = resolveFrom(s.root, dir)
		s.resCacheOK, s.resCachePubs, s.resCacheDir = true, s.pubs, dir
		s.resCacheLeafOK = false
	} else if s.resCacheLeafOK && s.resCacheRel == rel {
		return s.resCacheNode, s.resCacheTouched
	}
	n, touched := s.resCacheDirNode, s.resCacheDirTouched
	if n != nil {
		var t int
		n, t = resolveFrom(n, rel)
		touched += t - 1 // the directory itself is counted once
	}
	s.resCacheLeafOK, s.resCacheRel = true, rel
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
// write edits a current node in place.
func (s *Store) applyLeaf(n *node, op *leafOp) *node {
	switch op.kind {
	case leafValue:
		c := n.own(s.pl)
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
// whose subtree was edited in place: n already holds it.
func (s *Store) applyWrite(n *node, it *hashIter, op *leafOp) (*node, int, bool) {
	seg, h, ok := it.next()
	if !ok {
		return s.applyLeaf(n, op), 1, false
	}
	child := n.childByID(h, seg)
	created := false
	var parentGen uint64
	if child == nil {
		if w, ok := internTab[seg]; ok {
			seg = w // share the word instead of pinning the caller's path
		}
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
	p := normalize(path)
	dir, rel := splitPath(p)
	s.write(dir, rel, p, value)
}

// WriteAt is Write of rel under dir (rel may hold '/', as in
// "memory/target"): the same charge, the same generation bumps and the
// same watch fires as Write(dir+"/"+rel), but the joined path is built
// only when a watch matches it.
func (s *Store) WriteAt(dir, rel, value string) {
	dir, rel = splitAt(dir, rel)
	s.write(dir, rel, "", value)
}

// write applies one value write of rel under dir; path is their joined
// text when the caller has it, "" otherwise.
func (s *Store) write(dir, rel, path, value string) {
	s.enter()
	defer s.exit()
	it := hashSegmentsAt(dir, rel)
	op := leafOp{kind: leafValue, value: value}
	newRoot, touched, _ := s.applyWrite(s.root, &it, &op)
	s.publish(newRoot)
	s.chargeOp(touched + s.matchCost())
	s.fireWatchesAt(dir, rel, path)
}

// Read returns the value at path. The reply carries the value as of
// the END of the charged round trip: clock events that fire during the
// charge (a backend's setup commit, a watch callback) may update the
// node before the reply is delivered, and the client sees that update
// — the behaviour of a store daemon that serializes the reply after
// processing everything ahead of it. Whether the node exists is
// decided at the START of the op (a node appearing mid-charge does not
// turn an ErrNoEnt into a hit), and a node removed mid-charge replies
// with its value at the start. The publish counter makes the common
// case — nothing happened during the charge — free: the second resolve
// runs only when something was actually published.
func (s *Store) Read(path string) (string, error) {
	dir, rel := splitPath(path)
	return s.read(dir, rel, path)
}

// ReadAt is Read of rel under dir, charged exactly as
// Read(dir+"/"+rel). Consecutive reads in one directory resolve it
// once.
func (s *Store) ReadAt(dir, rel string) (string, error) {
	dir, rel = splitAt(dir, rel)
	return s.read(dir, rel, "")
}

// read is Read of rel under dir; path is their joined text when the
// caller has it, "" otherwise.
func (s *Store) read(dir, rel, path string) (string, error) {
	s.enter()
	defer s.exit()
	n, touched := s.resolveAt(dir, rel)
	if n == nil {
		s.chargeOp(touched)
		return "", &noEntError{path, dir, rel}
	}
	// Take the value now: an event during the charge may edit n in
	// place and then remove it.
	v, pubs := n.value, s.pubs
	s.chargeOp(touched)
	if s.pubs != pubs {
		if cur, _ := s.resolveAt(dir, rel); cur != nil {
			return cur.value, nil
		}
	}
	return v, nil
}

// ChargeReads charges n reads of rel under dir exactly as n ReadAt
// calls would — the same clock advances, counters, access-log lines
// and rotations — and replies nothing: the round trips of a client
// that re-reads state it does not use (libxl's state re-reads, a
// booting guest's store chatter). The run of whole round trips that
// ends strictly before the next queued event is charged in one clock
// advance; the read an event falls in is charged on its own, so the
// event fires at its deadline and the reads after it see what it did.
// While store stalls can be injected every read is charged on its
// own, so the stall stream draws its opportunities at the same
// virtual times.
func (s *Store) ChargeReads(dir, rel string, n int) {
	dir, rel = splitAt(dir, rel)
	s.enter()
	defer s.exit()
	stalls := s.Faults.Enabled(faults.KindStoreStall)
	for n > 0 {
		_, touched := s.resolveAt(dir, rel)
		k := 0
		if !stalls {
			k = s.chargeReadRun(touched, n)
		}
		if k == 0 {
			s.chargeOp(touched)
			k = 1
		}
		n -= k
	}
}

// chargeReadRun charges the longest run, of at most n read round trips
// touching nodesTouched nodes each, that ends strictly before the next
// queued event, in one clock advance, and returns its length: 0 when
// the first of them would reach the event.
func (s *Store) chargeReadRun(nodesTouched, n int) int {
	per := s.opCost(nodesTouched)
	k, rotate := n, false
	if s.LoggingEnabled {
		per += costs.XSLogFiles * costs.XSLogLine
		// The run stops at the read that rotates the logs, so it
		// charges at most one rotation pause, at its end.
		if left := costs.XSLogRotateLines - s.logLines; left <= n {
			k, rotate = left, true
		}
	}
	now := s.clock.Now()
	d := sim.Duration(k) * per
	if rotate {
		d += costs.XSLogRotateCost
	}
	if !s.clock.Quiet(now.Add(d)) {
		// Keep the whole round trips that end before the deadline:
		// fewer than k, and never the rotating one.
		dl, _ := s.clock.NextDeadline()
		k, rotate = min(int((dl.Sub(now)-1)/per), k-1), false
		if k <= 0 {
			return 0
		}
		d = sim.Duration(k) * per
	}
	s.Count.Ops += uint64(k)
	s.Count.SoftIRQs += uint64(k) * costs.XSRequestInterrupts
	s.Count.Crossings += uint64(k) * costs.XSRequestCrossings
	s.Count.NodesTouched += uint64(k) * uint64(nodesTouched)
	if s.LoggingEnabled {
		s.logLines += k
		s.Count.LogLines += uint64(k) * costs.XSLogFiles
		if rotate {
			s.logLines = 0
			s.Count.LogRotations++
		}
	}
	s.clock.Sleep(d)
	return k
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
	newRoot, touched, created := s.applyWrite(s.root, &it, &op)
	if created {
		s.publish(newRoot)
		s.chargeOp(touched + s.matchCost())
		s.fireWatches(path)
	} else {
		s.chargeOp(touched)
	}
}

// Directory lists the children of path in sorted order. The listing
// is charged one touch per child (fsck's and scrub's audits list this
// way); callers that read only the count use DirectoryLen.
func (s *Store) Directory(path string) ([]string, error) {
	s.enter()
	defer s.exit()
	names, _, err := s.list(path, true)
	return names, err
}

// DirectoryLen is Directory returning only the number of children: it
// charges the identical round trip, touching every child, but builds
// no listing. xl lists /local/domain on every creation — one of the
// O(#guests) costs on the creation path — and reads nothing of it, so
// the growth lives in the charge alone.
func (s *Store) DirectoryLen(path string) (int, error) {
	s.enter()
	defer s.exit()
	_, n, err := s.list(path, false)
	return n, err
}

// list charges one directory listing of path and replies with its
// child count and, when names is set, its sorted child names. Like
// Read, the reply reflects children as of the end of the charge, or
// as of op start when the node was removed during it; the cost was
// fixed at op start.
func (s *Store) list(path string, names bool) ([]string, int, error) {
	n, touched := s.resolve(path)
	if n == nil {
		s.chargeOp(touched)
		return nil, 0, &noEntError{path: path}
	}
	// Take the reply now: an event during the charge may edit n in
	// place and then remove it.
	count, pubs := n.nkids, s.pubs
	var out []string
	if names {
		out = appendChildNames(n.kids, make([]string, 0, count))
	}
	s.chargeOp(touched + count)
	if s.pubs != pubs {
		if cur, _ := s.resolve(path); cur != nil {
			count = cur.nkids
			if names {
				out = appendChildNames(cur.kids, out[:0])
			}
		}
	}
	sort.Strings(out)
	return out, count, nil
}

// appendChildNames collects a trie's entry names into buf.
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
	if newChild != child {
		n = n.withChild(s.pl, newChild)
	}
	return n, rm, t + 1, true
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
	newRoot, removed, touched, found := s.applyRm(s.root, &it, leaf, leafH)
	if !found {
		s.chargeOp(touched)
		return &noEntError{path: path}
	}
	rmSize := countNodes(removed)
	s.publish(newRoot)
	// The whole detached subtree is dead unless a snapshot holds it —
	// the pool's epoch check decides.
	s.pl.retireTree(removed)
	s.chargeOp(touched + rmSize + s.matchCost())
	s.fireWatches(path)
	return nil
}

// NumNodes reports the total node count, excluding the root
// (diagnostic; grows ~40 per guest with the stock toolstack). It walks
// the whole tree.
func (s *Store) NumNodes() int { return countNodes(s.root) - 1 }

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
		// Compare first, counting the names up to and including the
		// first duplicate, then charge those k comparisons and the
		// names registered at op start. Both are taken before any
		// charge, so the outcome cannot depend on what runs during it
		// (an event may edit n in place).
		k, dup, nkids := 0, false, n.nkids
		n.eachChild(func(child *node) bool {
			k++
			dup = child.value == name
			return !dup
		})
		s.chargeScan(k)
		if dup {
			s.chargeOp(nkids)
			return fmt.Errorf("%w: name %q", ErrExists, name)
		}
		// The scan touches every registered name whether or not a
		// duplicate turns up (§4.2): accepting a unique name costs the
		// same full comparison pass, so the successful path charges the
		// scan too.
		s.chargeOp(nkids)
	}
	s.WriteAt(dir, key, name)
	return nil
}

// chargeScan charges k name comparisons, one XSNameUniquenessPerGuest
// each. When no queued event falls inside the scan, one advance ends
// where k single sleeps would. Otherwise it sleeps once per
// comparison, so an event due mid-scan runs at its own deadline and a
// handler that sleeps pushes the rest of the scan back.
func (s *Store) chargeScan(k int) {
	d := costs.XSNameUniquenessPerGuest
	if s.clock.Quiet(s.clock.Now().Add(sim.Duration(k) * d)) {
		s.clock.Sleep(sim.Duration(k) * d)
		return
	}
	for i := 0; i < k; i++ {
		s.clock.Sleep(d)
	}
}
