package xenstore

// Fuzz targets. Seed corpora live in testdata/fuzz/ (checked in) plus
// the f.Add calls below; `make fuzz-smoke` runs each target for 20s.

import (
	"bytes"
	"errors"
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
