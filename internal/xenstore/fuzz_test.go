package xenstore

// Fuzz targets. Seed corpora live in testdata/fuzz/ (checked in) plus
// the f.Add calls below; `make fuzz-smoke` runs each target for 20s.

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// FuzzPath throws arbitrary path strings at the store's hot entry
// points. Invariants: nothing panics, a written path reads back, path
// normalization is idempotent, and any reachable tree serializes to a
// canonical blob (Serialize∘Deserialize∘Serialize is the identity).
func FuzzPath(f *testing.F) {
	for _, seed := range []string{
		"/",
		"",
		"/local/domain/1/name",
		"/local/domain/1/device/vif/0/state",
		"local/domain/2",
		"//double//slash//",
		"/trailing/",
		"/a/b/c/d/e/f/g/h/i/j",
		"/with space/and\ttab",
		"/\x00nul",
		"/répertoire/ünïcode",
		"/very" + string(make([]byte, 64)) + "long",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		s, _ := newStore()
		s.LoggingEnabled = false

		if n1 := normalize(path); normalize(n1) != n1 {
			t.Fatalf("normalize not idempotent: %q -> %q -> %q", path, n1, normalize(n1))
		}

		s.Write(path, "fuzz")
		if v, err := s.Read(path); err != nil || v != "fuzz" {
			t.Fatalf("Write-then-Read(%q) = (%q, %v)", path, v, err)
		}
		if !s.Exists(path) {
			t.Fatalf("Exists(%q) false after write", path)
		}
		if _, err := s.Directory(path); err != nil {
			t.Fatalf("Directory(%q) after write: %v", path, err)
		}

		// Every reachable tree must serialize canonically.
		sn := s.Snapshot()
		blob := sn.Serialize()
		back, err := DeserializeSnapshot(blob)
		if err != nil {
			t.Fatalf("own serialization rejected for path %q: %v", path, err)
		}
		if back.NumNodes() != sn.NumNodes() {
			t.Fatalf("round trip changed node count: %d -> %d", sn.NumNodes(), back.NumNodes())
		}
		if !bytes.Equal(back.Serialize(), blob) {
			t.Fatalf("serialization not canonical for path %q", path)
		}

		// Removal: the root is rejected, anything else disappears.
		if err := s.Rm(path); err == nil {
			if s.Exists(path) {
				t.Fatalf("Exists(%q) true after successful Rm", path)
			}
		} else if !errors.Is(err, ErrNoEnt) && normalize(path) != "/" {
			t.Fatalf("Rm(%q): unexpected error %v", path, err)
		}
	})
}

// FuzzSnapshotRoundTrip feeds arbitrary bytes to the snapshot decoder.
// Invariants: no panics; any accepted blob re-serializes to the exact
// same bytes (the canonical-format property TestSnapshotSerializeRoundTrip
// checks for well-formed trees, extended here to every acceptable
// input); and an accepted blob grafts into a live store without
// breaking generation monotonicity.
func FuzzSnapshotRoundTrip(f *testing.F) {
	// Real blobs of increasing shape complexity, plus junk.
	empty, _ := newStore()
	f.Add(empty.Snapshot().Serialize())
	populated, _ := newStore()
	populateGuests(populated, 3)
	f.Add(populated.Snapshot().Serialize())
	sub, _ := populated.Snapshot().Subtree("/local/domain/1")
	f.Add(sub.Serialize())
	f.Add([]byte(snapMagic))
	f.Add([]byte("not a snapshot"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := DeserializeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("decode error %v is not ErrBadSnapshot", err)
			}
			return
		}
		if got := sn.Serialize(); !bytes.Equal(got, data) {
			t.Fatalf("accepted blob is not canonical: %d bytes in, %d out", len(data), len(got))
		}
		if sn.NumNodes() < 1 {
			t.Fatalf("accepted snapshot has %d nodes", sn.NumNodes())
		}
		checkGenBound(t, sn.root, sn.gen)
		// Walking the frozen tree must be safe.
		if _, err := sn.Directory("/"); err != nil {
			t.Fatalf("Directory on accepted snapshot: %v", err)
		}
		// Grafting any accepted snapshot must keep generation order
		// monotonic: a transaction right after the graft cannot see a
		// phantom conflict.
		s, _ := newStore()
		s.LoggingEnabled = false
		if err := s.GraftSnapshot(sn, "/", "/grafted"); err != nil {
			t.Fatalf("graft of accepted snapshot: %v", err)
		}
		checkGenBound(t, s.loaded().root, s.gen)
		if got, want := s.NumNodes(), sn.NumNodes(); got != want {
			t.Fatalf("graft node count: store %d, snapshot %d", got, want)
		}
		if err := s.Txn(3, func(tx *Tx) error {
			tx.Write("/grafted/probe", "1")
			return nil
		}); err != nil {
			t.Fatalf("txn after graft: %v", err)
		}
	})
}

// Write-set vocabulary for FuzzTxnCommit: the frontend and backend
// directories a device-entry commit writes, plus a shallow one, with
// keys shared between them so paths repeat within and across commits.
// Watches registered mid-run take one of the tokens; the last two name
// watches every run starts with.
var (
	txnFuzzPrefixes = []string{"/local/domain/1/device/vif/0", "/local/domain/0/backend/vif/1/0", "/vm/1"}
	txnFuzzKeys     = []string{"state", "mac", "handle", "backend", "a", "b"}
	txnFuzzTokens   = []string{"f0", "f1", "f2", "/vm", "/local/domain/1/device"}
)

// commitSequential is the reference FuzzTxnCommit holds Tx.Commit to.
// It starts a transaction, buffers writes, runs between (a plain write
// from another client, or nothing), then always walks the write set to
// validate it, stopping at the first node modified since TxnStart. A
// commit that passes replays the write set through Store.Write one path
// at a time in first-write order.
func commitSequential(s *Store, writes [][2]string, between func(*Store)) error {
	tx := s.TxnStart()
	for _, w := range writes {
		tx.Write(w[0], w[1])
	}
	between(s)
	t := tx.t
	touched := 0 // one touch per written path checked, plus the round trip
	for _, w := range t.writes {
		touched++
		if n, _ := resolveFrom(s.loaded().root, w.path); n != nil && n.gen > t.startGen {
			s.chargeOp(touched + 1)
			s.Count.TxnConflicts++
			s.recycleTxn(t)
			return ErrAgain
		}
	}
	s.chargeOp(touched + 1)
	for _, w := range t.writes {
		s.Write(w.path, w.val)
	}
	s.Count.TxnCommits++
	s.recycleTxn(t)
	return nil
}

// checkCandidates fails t unless the indexed delivery candidates for
// path and each of its ancestors are exactly the registered watches
// that match it, in registration order.
func checkCandidates(t *testing.T, step int, s *Store, path string) {
	t.Helper()
	for p := path; ; p = refParent(p) {
		got := s.mergeCandidates(0, p)
		var want []*watch
		for _, w := range s.watches {
			if watchMatches(w.prefix, p) {
				want = append(want, w)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: %s has %d delivery candidates, %d watches match", step, p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: %s candidate %d is watch %d on %s, want %d on %s",
					step, p, i, got[i].id, got[i].prefix, want[i].id, want[i].prefix)
			}
		}
		if p == "/" {
			return
		}
	}
}

// FuzzTxnCommit is a differential check of commit atomicity and
// validation. Each input decodes into up to 64 steps over two stores:
// write sets of 1–16 writes over a few shared prefixes (some repeating
// a path), plain writes, removals, snapshots, and watches registered
// at random depths or removed by token. A write set commits through
// Tx.Commit on one store and through commitSequential on its twin;
// some commits see a plain write land between TxnStart and Commit on
// both, so Commit's quiet path (nothing published since TxnStart) and
// its validation walk are both held to the reference, which always
// walks. After every step both stores must hold the same tree (values,
// generations and child counts at every node, compared through the
// canonical serialization), identical Counters, the same virtual time
// and the same watch event sequence, and each store's indexed delivery
// candidates must match a scan of its watches; every snapshot taken
// along the way must still serialize to its bytes at capture.
func FuzzTxnCommit(f *testing.F) {
	f.Add([]byte{0, 12, 0, 0, 1, 0, 1, 1, 0, 4, 2, 0, 2, 3, 0, 3, 1, 0, 5, 1, 1, 0, 0, 1, 2, 1, 1, 4, 3, 0, 1, 1, 0, 0})
	f.Add([]byte{5, 1, 15, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 2, 2, 0, 3, 0, 4, 6, 0, 0, 3, 1, 1, 2, 5})
	f.Add([]byte{7, 2, 4, 1, 6, 14, 0, 0, 0, 1, 3, 3, 2, 5, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		pickPath := func() string {
			p := txnFuzzPrefixes[next()%len(txnFuzzPrefixes)] + "/" + txnFuzzKeys[next()%len(txnFuzzKeys)]
			if next()%4 == 0 {
				p += "/" + txnFuzzKeys[next()%len(txnFuzzKeys)]
			}
			return p
		}
		var (
			stores [2]*Store
			events [2][]watchEvent
		)
		watch := func(i int, prefix, token string) {
			stores[i].Watch(prefix, token, func(path, token string) {
				events[i] = append(events[i], watchEvent{path: path, token: token})
			})
		}
		for i := range stores {
			stores[i], _ = newStore()
			for _, w := range []string{"/", "/local/domain/1/device", "/local/domain/0/backend/vif/1", "/vm"} {
				watch(i, w, w)
			}
		}
		batch, seq := stores[0], stores[1]
		type frozen struct {
			sn   *Snapshot
			blob []byte
		}
		var snaps []frozen
		for step := 0; len(data) > 0 && step < 64; step++ {
			switch op := next() % 10; op {
			case 5:
				for _, s := range stores {
					sn := s.Snapshot()
					snaps = append(snaps, frozen{sn, sn.Serialize()})
				}
			case 6:
				p := pickPath()
				if next()%2 == 0 {
					p = txnFuzzPrefixes[next()%len(txnFuzzPrefixes)]
				}
				if e1, e2 := batch.Rm(p), seq.Rm(p); (e1 == nil) != (e2 == nil) {
					t.Fatalf("step %d: Rm(%q) = %v on the committing store, %v on its twin", step, p, e1, e2)
				}
			case 7:
				p, v := pickPath(), "w"+strconv.Itoa(next()%8)
				batch.Write(p, v)
				seq.Write(p, v)
			case 8:
				segs := strings.Split(pickPath()[1:], "/")
				prefix := "/" + strings.Join(segs[:next()%(len(segs)+1)], "/")
				tok := txnFuzzTokens[next()%len(txnFuzzTokens)]
				for i := range stores {
					watch(i, prefix, tok)
				}
			case 9:
				tok := txnFuzzTokens[next()%len(txnFuzzTokens)]
				if n1, n2 := batch.UnwatchByToken(tok), seq.UnwatchByToken(tok); n1 != n2 {
					t.Fatalf("step %d: UnwatchByToken(%q) removed %d on the committing store, %d on its twin", step, tok, n1, n2)
				}
			default:
				// The count byte's bit 4 puts a plain write between
				// TxnStart and Commit on both stores.
				n := next()
				writes := make([][2]string, 1+n%16)
				for i := range writes {
					writes[i] = [2]string{pickPath(), "v" + strconv.Itoa(next()%8)}
				}
				between := func(*Store) {}
				if n&16 != 0 {
					p, v := pickPath(), "x"+strconv.Itoa(next()%8)
					between = func(s *Store) { s.Write(p, v) }
				}
				tx := batch.TxnStart()
				for _, w := range writes {
					tx.Write(w[0], w[1])
				}
				between(batch)
				err := tx.Commit()
				want := commitSequential(seq, writes, between)
				if !errors.Is(err, want) {
					t.Fatalf("step %d: commit: %v, reference: %v", step, err, want)
				}
			}
			a, err1 := batch.SerializeSubtree("/")
			b, err2 := seq.SerializeSubtree("/")
			if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
				t.Fatalf("step %d: trees differ (errors %v, %v)", step, err1, err2)
			}
			if batch.Count != seq.Count {
				t.Fatalf("step %d: counters differ:\n%+v\n%+v", step, batch.Count, seq.Count)
			}
			if t1, t2 := batch.clock.Now(), seq.clock.Now(); t1 != t2 {
				t.Fatalf("step %d: virtual time %v vs %v", step, t1, t2)
			}
			if len(events[0]) != len(events[1]) {
				t.Fatalf("step %d: %d watch events vs %d", step, len(events[0]), len(events[1]))
			}
			for i := range events[0] {
				if events[0][i] != events[1][i] {
					t.Fatalf("step %d: watch event %d: %+v vs %+v", step, i, events[0][i], events[1][i])
				}
			}
			for _, s := range stores {
				for _, p := range txnFuzzPrefixes {
					checkCandidates(t, step, s, p+"/a/b")
				}
			}
		}
		for i, fz := range snaps {
			if !bytes.Equal(fz.sn.Serialize(), fz.blob) {
				t.Fatalf("snapshot %d changed after capture", i)
			}
		}
	})
}
