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
// path, and the txn structs recycle through a per-store free list, so
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
// plain Write of that path would charge at that moment. Applying them
// as one batch also makes the commit cheap: the pool's edit window
// (pool.go) lets every write after the first edit the commit's own
// spine copies in place, so a 13-write device-entry commit copies each
// spine node once rather than once per write, and the pool recycles
// once per commit rather than once per write.

// readEnt records the generation a transaction observed for a path
// (0 = absent). The read set preserves first-observed order.
type readEnt struct {
	path string
	gen  uint64
}

// writeEnt is one buffered write. The write set preserves first-write
// order — commits apply in that order, with later writes to the same
// path updated in place. touched is the node count the write's apply
// visited, which its charge pays.
type writeEnt struct {
	path    string
	val     string
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
	for i, x := range s.openTxns {
		if x == t {
			s.openTxns = append(s.openTxns[:i], s.openTxns[i+1:]...)
			break
		}
	}
	t.live = false
	for i := range t.reads {
		t.reads[i] = readEnt{} // unpin observed path strings
	}
	t.reads = t.reads[:0]
	for i := range t.writes {
		t.writes[i] = writeEnt{} // unpin buffered path and value strings
	}
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
	s.openTxns = append(s.openTxns, t)
	s.Count.TxnStarts++
	s.chargeOp(1)
	return &Tx{s: s, t: t, id: t.id}
}

// findRead reports whether p is already in t.reads.
func (t *txn) findRead(p string) bool {
	for i := range t.reads {
		if t.reads[i].path == p {
			return true
		}
	}
	return false
}

// observe records the generation of path at read time.
func (tx *Tx) observe(p string) {
	if !tx.valid() || tx.t.findRead(p) {
		return
	}
	var g uint64
	if n, _ := tx.s.resolve(p); n != nil {
		g = n.gen
	}
	tx.t.reads = append(tx.t.reads, readEnt{path: p, gen: g})
}

// findWrite returns the buffered write for p, or nil.
func (tx *Tx) findWrite(p string) *writeEnt {
	if !tx.valid() {
		return nil
	}
	for i := range tx.t.writes {
		if tx.t.writes[i].path == p {
			return &tx.t.writes[i]
		}
	}
	return nil
}

// Read returns the value at path as seen by the transaction.
func (tx *Tx) Read(path string) (string, error) {
	p := normalize(path)
	if w := tx.findWrite(p); w != nil {
		tx.s.chargeOp(1)
		return w.val, nil
	}
	tx.observe(p)
	return tx.s.Read(p)
}

// Write buffers a write, preserving first-write order.
func (tx *Tx) Write(path, value string) {
	p := normalize(path)
	if w := tx.findWrite(p); w != nil {
		w.val = value
	} else if tx.valid() {
		tx.t.writes = append(tx.t.writes, writeEnt{path: p, val: value})
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
	// root inside the pool's edit window, and publish it once. Each
	// write bumps generations exactly as a plain Write would.
	if len(t.writes) > 0 {
		s.pl.beginEdit()
		root := s.loaded().root
		for i := range t.writes {
			w := &t.writes[i]
			it := hashSegments(w.path)
			op := leafOp{kind: leafValue, value: w.val}
			root, w.touched, _ = s.applyWrite(root, &it, &op)
		}
		s.pl.endEdit()
		s.publish(root)
	}
	// Only then charge and fire per write, in the same order: whatever
	// runs during a charge or a callback sees the whole commit.
	for i := range t.writes {
		w := &t.writes[i]
		s.chargeOp(w.touched + s.matchCost(w.path))
		s.fireWatches(w.path)
	}
	s.Count.TxnCommits++
	s.recycleTxn(t)
	return nil
}

// validate walks t's read set in first-observed order, then its write
// set, and stops at the first conflict. It returns the nodes touched
// and whether a conflict was found.
func (s *Store) validate(t *txn) (touched int, conflict bool) {
	for _, r := range t.reads {
		touched++
		n, _ := s.resolve(r.path)
		switch {
		case n == nil && r.gen != 0:
			return touched, true // node vanished
		case n != nil && n.gen != r.gen:
			return touched, true // node changed (or appeared: gen==0)
		}
	}
	for i := range t.writes {
		touched++
		if n, _ := s.resolve(t.writes[i].path); n != nil && n.gen > t.startGen {
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
