package xenstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
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
// size where an index pays for itself. Validation walks the read set
// in first-observed order and stops at the first conflict, so the
// touched-node count of a conflicting commit is a pure function of the
// op sequence — a property the model-check harness and the
// byte-identical golden figures rely on.

// readEnt records the generation a transaction observed for a path
// (0 = absent). The read set preserves first-observed order.
type readEnt struct {
	path string
	gen  uint64
}

// writeEnt is one buffered write (del means delete). The write set
// preserves first-write order — commits apply in that order, with
// later writes to the same path updated in place.
type writeEnt struct {
	path string
	val  string
	del  bool
}

type txn struct {
	id       TxnID
	startGen uint64
	live     bool
	reads    []readEnt
	writes   []writeEnt
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
		if w.del {
			return "", &noEntError{path}
		}
		return w.val, nil
	}
	tx.observe(p)
	return tx.s.Read(p)
}

// Exists reports whether path resolves within the transaction.
func (tx *Tx) Exists(path string) bool {
	p := normalize(path)
	if w := tx.findWrite(p); w != nil {
		tx.s.chargeOp(1)
		return !w.del
	}
	tx.observe(p)
	return tx.s.Exists(p)
}

// Directory lists children of path (committed view merged with the
// transaction's own writes directly beneath path).
func (tx *Tx) Directory(path string) ([]string, error) {
	p := normalize(path)
	tx.observe(p)
	names, err := tx.s.Directory(p)
	if !tx.valid() || len(tx.t.writes) == 0 {
		return names, err
	}
	if err != nil {
		names = names[:0]
	}
	prefix := p + "/"
	out := names
	for _, w := range tx.t.writes {
		if !strings.HasPrefix(w.path, prefix) {
			continue
		}
		rest := w.path[len(prefix):]
		first := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			first = rest[:i]
		}
		if w.del && rest == first {
			for i, n := range out {
				if n == first {
					out = append(out[:i], out[i+1:]...)
					break
				}
			}
		} else if !w.del {
			dup := false
			for _, n := range out {
				if n == first {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, first)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// put buffers a write or delete for p, preserving first-write order.
func (tx *Tx) put(p, val string, del bool) {
	if !tx.valid() {
		return
	}
	if w := tx.findWrite(p); w != nil {
		w.val, w.del = val, del
		return
	}
	tx.t.writes = append(tx.t.writes, writeEnt{path: p, val: val, del: del})
}

// Write buffers a write.
func (tx *Tx) Write(path, value string) {
	tx.put(normalize(path), value, false)
	tx.s.chargeOp(1)
}

// Rm buffers a delete.
func (tx *Tx) Rm(path string) {
	tx.put(normalize(path), "", true)
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
	touched := 0
	conflict := false
	for _, r := range t.reads {
		touched++
		n, _ := s.resolve(r.path)
		switch {
		case n == nil && r.gen != 0:
			conflict = true // node vanished
		case n != nil && n.gen != r.gen:
			conflict = true // node changed (or appeared: gen==0)
		}
		if conflict {
			break
		}
	}
	if !conflict {
		for i := range t.writes {
			touched++
			if n, _ := s.resolve(t.writes[i].path); n != nil && n.gen > t.startGen {
				conflict = true
				break
			}
		}
	}
	s.chargeOp(touched + 1)
	if conflict {
		s.Count.TxnConflicts++
		s.recycleTxn(t)
		return ErrAgain
	}
	// Apply in order; watches fire per write, as on a real commit.
	for i := range t.writes {
		w := &t.writes[i]
		if w.del {
			_ = s.Rm(w.path)
		} else {
			s.WriteAs(0, w.path, w.val)
		}
	}
	s.Count.TxnCommits++
	s.recycleTxn(t)
	return nil
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
