package xenstore

import (
	"errors"
	"fmt"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/faults"
)

// TxnID identifies an open transaction.
type TxnID uint64

// Transactions are the second-hottest xenstore path after plain writes
// (every toolstack create commits two, every device another). Read
// and write sets are small reusable slices keyed by the normalized
// path, held as a directory and the path relative to it (a path-based
// op splits at its last '/'; WriteAt and ReadAt keep the caller's
// directory), and the txn structs recycle through a per-store free list, so
// a warm transaction start/observe/write/commit cycle allocates only
// its handle. Nothing outlives the transaction: the store keeps no
// per-path state for transactions, so their cost does not grow with
// the number of distinct paths (serving churn never reuses a VM name).
//
// The sets are searched linearly. Every transaction the toolstacks
// issue observes at most 1 node and writes at most 13, far below the
// size where an index pays for itself. Validation charges one node
// touch per observed and per written path. When anything was published
// since the transaction started, it walks the read set in
// first-observed order, then the write set, and stops at the first
// conflict, so the touched-node count of a conflicting commit is a
// pure function of the op sequence — a property the model-check
// harness and the byte-identical golden figures rely on. A quiet
// commit (nothing published since TxnStart) skips the walk: the live
// tree is still the tree the transaction started on, so every observed
// generation holds, and no node can carry a generation above startGen,
// because no published generation ever exceeds the store's counter.
// It charges the same touches the walk would have.
//
// A commit is atomic, as in oxenstored: the whole write set is applied
// to one working root, which is published once, before any clock
// charge or watch fires. No watch callback and no clock event ever
// sees a transaction half applied. The writes still charge and fire
// one by one afterwards, in first-write order, each at the cost a
// plain Write of that path would charge at that moment. The writes
// edit current nodes in place like any mutation (pool.go), so a
// 13-write device-entry commit copies nothing when no snapshot was
// taken since the spine was last written, and copies each old spine
// node once otherwise. The commit resolves each distinct directory of
// the write set once: the first write under it walks from the root and
// leaves the directory node current, and every later write under it is
// applied from that node (applyWrites), charged the touches a walk
// from the root would make. A device-entry commit resolves its
// frontend and backend directories once each, and no write builds its
// path unless a watch matches it.

// readEnt records the generation a transaction observed for a path
// (0 = absent). The read set preserves first-observed order. A path
// is held as a directory and the path relative to it (see writeEnt).
type readEnt struct {
	dir, rel string
	plen     int // pathLen(dir, rel)
	gen      uint64
}

// writeEnt is one buffered write. The write set preserves first-write
// order — commits apply in that order, with later writes to the same
// path updated in place. A path-based write is split at its last '/'
// and keeps its text in path; a directory-relative write keeps the
// caller's directory and relative path and no text: the commit joins
// them only for a watch that matches. Entries are the same path when
// their joined texts are equal, however they were split. touched is
// the node count the write's apply visited, which its charge pays.
type writeEnt struct {
	path     string
	dir, rel string
	plen     int // pathLen(dir, rel)
	val      string
	touched  int
}

// dirEnt is a directory a commit has resolved in its working root:
// its current node, and the nodes from the root to it.
type dirEnt struct {
	dir     string
	n       *node
	touched int
}

type txn struct {
	id       TxnID
	startGen uint64
	// startPubs is the store's publish count at TxnStart; Commit skips
	// the validation walk when it has not moved.
	startPubs uint64
	live      bool
	reads     []readEnt
	writes    []writeEnt
	// dirs is Commit's scratch: the write set's distinct directories.
	dirs []dirEnt
}

// Tx is the client handle for operations inside a transaction.
// Reads observe committed state (plus the transaction's own writes);
// writes are buffered until Commit. Any node observed or written that
// another committer modifies in the meantime aborts the commit with
// ErrAgain — exactly the overlap failure mode the paper blames for
// XenStore slowdowns under load (§4.2). The id field guards against
// stale handles: the underlying txn struct is recycled, and a handle
// whose id no longer matches is treated as a dead transaction.
type Tx struct {
	s  *Store
	t  *txn
	id TxnID
}

// valid reports whether the handle still refers to its live txn.
func (tx *Tx) valid() bool {
	return tx.t != nil && tx.t.live && tx.t.id == tx.id
}

// getTxn draws a recycled txn struct or makes a fresh one.
func (s *Store) getTxn() *txn {
	if n := len(s.freeTxns); n > 0 {
		t := s.freeTxns[n-1]
		s.freeTxns[n-1] = nil
		s.freeTxns = s.freeTxns[:n-1]
		return t
	}
	return &txn{}
}

// recycleTxn closes t (commit, abort, conflict) and returns it to the
// free list with its sets emptied.
func (s *Store) recycleTxn(t *txn) {
	t.live = false
	clear(t.reads) // unpin observed path strings
	t.reads = t.reads[:0]
	clear(t.writes) // unpin buffered path and value strings
	t.writes = t.writes[:0]
	if len(s.freeTxns) < 64 {
		s.freeTxns = append(s.freeTxns, t)
	}
}

// TxnStart opens a transaction.
func (s *Store) TxnStart() *Tx {
	s.nextTxn++
	t := s.getTxn()
	t.id = s.nextTxn
	t.startGen = s.gen
	t.startPubs = s.pubs
	t.live = true
	s.Count.TxnStarts++
	s.chargeOp(1)
	return &Tx{s: s, t: t, id: t.id}
}

// samePath reports whether rel under dir and rel2 under dir2, whose
// joined lengths are equal, are the same path. Two splits of one path
// in different places are joined in s.pathBuf and compared there.
func (s *Store) samePath(dir, rel, dir2, rel2 string) bool {
	if dir == dir2 {
		return rel == rel2
	}
	b := appendPath(s.pathBuf[:0], dir, rel)
	n := len(b)
	b = appendPath(b, dir2, rel2)
	s.pathBuf = b
	return string(b[:n]) == string(b[n:])
}

// observe records the generation of rel under dir at read time.
func (tx *Tx) observe(dir, rel string, plen int) {
	if !tx.valid() {
		return
	}
	for i := range tx.t.reads {
		if r := &tx.t.reads[i]; r.plen == plen && tx.s.samePath(r.dir, r.rel, dir, rel) {
			return
		}
	}
	var g uint64
	if n, _ := tx.s.resolveAt(dir, rel); n != nil {
		g = n.gen
	}
	tx.t.reads = append(tx.t.reads, readEnt{dir: dir, rel: rel, plen: plen, gen: g})
}

// findWrite returns the buffered write of rel under dir, or nil.
func (tx *Tx) findWrite(dir, rel string, plen int) *writeEnt {
	if !tx.valid() {
		return nil
	}
	for i := range tx.t.writes {
		if w := &tx.t.writes[i]; w.plen == plen && tx.s.samePath(w.dir, w.rel, dir, rel) {
			return w
		}
	}
	return nil
}

// ReadAt returns the value of rel under dir (rel may hold '/' or be
// empty, naming dir itself) as seen by the transaction: its own
// buffered write if it has one, else the committed node, whose
// generation the commit validates.
func (tx *Tx) ReadAt(dir, rel string) (string, error) {
	dir, rel = splitAt(dir, rel)
	plen := pathLen(dir, rel)
	if w := tx.findWrite(dir, rel, plen); w != nil {
		tx.s.chargeOp(1)
		return w.val, nil
	}
	tx.observe(dir, rel, plen)
	return tx.s.read(dir, rel, "")
}

// Write buffers a write, preserving first-write order.
func (tx *Tx) Write(path, value string) {
	p := normalize(path)
	dir, rel := splitPath(p)
	tx.write(dir, rel, p, value)
}

// WriteAt buffers a write of rel under dir (rel may hold '/'). It is
// Write(dir+"/"+rel, value) — the same write-set entry, charge,
// commit and watch fires — without building the joined path unless a
// watch matches it at commit.
func (tx *Tx) WriteAt(dir, rel, value string) {
	dir, rel = splitAt(dir, rel)
	tx.write(dir, rel, "", value)
}

// write buffers value for rel under dir; path is their joined text
// when the caller has it, "" otherwise.
func (tx *Tx) write(dir, rel, path, value string) {
	plen := pathLen(dir, rel)
	if w := tx.findWrite(dir, rel, plen); w != nil {
		w.val = value
	} else if tx.valid() {
		tx.t.writes = append(tx.t.writes, writeEnt{path: path, dir: dir, rel: rel, plen: plen, val: value})
	}
	tx.s.chargeOp(1)
}

// Abort discards the transaction.
func (tx *Tx) Abort() {
	if tx.valid() {
		tx.s.recycleTxn(tx.t)
	}
	tx.s.chargeOp(1)
}

// Commit validates and applies the transaction. It returns ErrAgain
// if any observed or written node changed since it was accessed;
// callers re-run their transaction body (see Store.Txn).
func (tx *Tx) Commit() error {
	s := tx.s
	if !tx.valid() {
		return ErrBadTxn
	}
	s.enter()
	defer s.exit()
	t := tx.t
	if s.Faults.Fire(faults.KindTxnConflict) {
		// An overlapping committer got in first (§4.2's failure mode,
		// forced): the daemon rejects the commit exactly as it would a
		// genuine generation mismatch.
		s.chargeOp(1)
		s.Count.TxnConflicts++
		s.Count.InjectedConflicts++
		s.recycleTxn(t)
		return ErrAgain
	}
	// Validation: every read must still be at the observed generation,
	// and every written path must not have been modified since start.
	// A quiet commit cannot conflict and needs no walk (see the header).
	touched := len(t.reads) + len(t.writes)
	conflict := false
	if s.pubs != t.startPubs {
		touched, conflict = s.validate(t)
	}
	s.chargeOp(touched + 1)
	if conflict {
		s.Count.TxnConflicts++
		s.recycleTxn(t)
		return ErrAgain
	}
	// Apply the whole write set, in first-write order, to one working
	// root, and publish it once. Each write bumps generations exactly
	// as a plain Write would.
	if len(t.writes) > 0 {
		root := s.applyWrites(t)
		s.publish(root)
	}
	// Only then charge and fire per write, in the same order: whatever
	// runs during a charge or a callback sees the whole commit.
	for i := range t.writes {
		w := &t.writes[i]
		s.chargeOp(w.touched + s.matchCost())
		s.fireWatchesAt(w.dir, w.rel, w.path)
	}
	s.Count.TxnCommits++
	s.recycleTxn(t)
	return nil
}

// applyWrites applies t's write set to a working root and returns that
// root. It resolves each distinct directory of the write set once: the
// first write under a directory walks from the root, copying any old
// spine node, and leaves that directory's node current, which every
// later write under it is applied from. The node stays where it is,
// since later writes edit it in place, so the root above it needs no
// further edit. Each write's touched count is what a walk from the
// root would visit.
func (s *Store) applyWrites(t *txn) *node {
	root := s.root
	for i := range t.writes {
		w := &t.writes[i]
		op := leafOp{kind: leafValue, value: w.val}
		if d := t.findDir(w.dir); d != nil {
			it := hashSegments(w.rel)
			_, touched, _ := s.applyWrite(d.n, &it, &op)
			w.touched = d.touched + touched - 1 // d.n is counted in both
			continue
		}
		it := hashSegmentsAt(w.dir, w.rel)
		root, w.touched, _ = s.applyWrite(root, &it, &op)
		n, touched := resolveFrom(root, w.dir)
		t.dirs = append(t.dirs, dirEnt{dir: w.dir, n: n, touched: touched})
	}
	clear(t.dirs) // unpin the working nodes
	t.dirs = t.dirs[:0]
	return root
}

// findDir returns the commit's resolved entry for dir, or nil.
func (t *txn) findDir(dir string) *dirEnt {
	for i := range t.dirs {
		if t.dirs[i].dir == dir {
			return &t.dirs[i]
		}
	}
	return nil
}

// validate walks t's read set in first-observed order, then its write
// set, and stops at the first conflict. It returns the nodes touched
// and whether a conflict was found.
func (s *Store) validate(t *txn) (touched int, conflict bool) {
	for _, r := range t.reads {
		touched++
		n, _ := s.resolveAt(r.dir, r.rel)
		switch {
		case n == nil && r.gen != 0:
			return touched, true // node vanished
		case n != nil && n.gen != r.gen:
			return touched, true // node changed (or appeared: gen==0)
		}
	}
	for i := range t.writes {
		touched++
		w := &t.writes[i]
		if n, _ := s.resolveAt(w.dir, w.rel); n != nil && n.gen > t.startGen {
			return touched, true
		}
	}
	return touched, false
}

// Txn runs body in a transaction, retrying on ErrAgain up to
// maxRetries times. Backoff between attempts is exponential — the
// paper's retry penalty doubling per attempt, capped at
// costs.XSTxnBackoffMax — plus deterministic jitter from the fault
// plane when one is attached (nil injectors add nothing, so
// undisturbed runs are byte-identical). Exhausting the budget returns
// ErrTxnRetriesExhausted (wrapping ErrAgain).
func (s *Store) Txn(maxRetries int, body func(tx *Tx) error) error {
	for attempt := 0; ; attempt++ {
		tx := s.TxnStart()
		if err := body(tx); err != nil {
			tx.Abort()
			return err
		}
		err := tx.Commit()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrAgain) {
			return err
		}
		if attempt >= maxRetries {
			return fmt.Errorf("%w: gave up after %d attempts: %w",
				ErrTxnRetriesExhausted, attempt+1, err)
		}
		s.clock.Sleep(txnBackoff(attempt) + s.Faults.Jitter(faults.KindTxnConflict, costs.XSTxnRetry))
	}
}

// txnBackoff is the delay before retry attempt+1: the base penalty
// doubled per failed attempt, capped so a deep conflict storm cannot
// park a toolstack for seconds.
func txnBackoff(attempt int) time.Duration {
	d := costs.XSTxnRetry
	for i := 0; i < attempt && d < costs.XSTxnBackoffMax; i++ {
		d *= 2
	}
	if d > costs.XSTxnBackoffMax {
		d = costs.XSTxnBackoffMax
	}
	return d
}
