package xenstore

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"testing"
)

// populateGuests writes a realistic per-guest subtree for n guests
// (about 6 nodes each, echoing the toolstack's registry shape).
func populateGuests(s *Store, n int) {
	for i := 0; i < n; i++ {
		d := fmt.Sprintf("/local/domain/%d", i+1)
		s.Write(d+"/name", fmt.Sprintf("g%d", i+1))
		s.Write(d+"/memory/target", "8192")
		s.Write(d+"/device/vif/0/state", "4")
		s.Write(d+"/control/shutdown", "")
	}
}

// snapRead returns the value at path in sn, or ErrNoEnt.
func snapRead(sn *Snapshot, path string) (string, error) {
	e := sn.Lookup(path)
	if !e.Exists() {
		return "", fmt.Errorf("%w: %s", ErrNoEnt, path)
	}
	return e.Value(), nil
}

// snapDir lists the children of path in sn, sorted, or ErrNoEnt.
func snapDir(sn *Snapshot, path string) ([]string, error) {
	e := sn.Lookup(path)
	if !e.Exists() {
		return nil, fmt.Errorf("%w: %s", ErrNoEnt, path)
	}
	out := []string{}
	e.Each(func(name string, _ Entry) { out = append(out, name) })
	sort.Strings(out)
	return out, nil
}

func TestSnapshotFrozenWhileLiveTreeMoves(t *testing.T) {
	s, _ := newStore()
	populateGuests(s, 5)
	sn := s.Snapshot()
	wantNodes := sn.NumNodes()

	// Mutate the live tree hard: overwrite, delete, create, mkdir.
	s.Write("/local/domain/1/name", "renamed")
	if err := s.Rm("/local/domain/2"); err != nil {
		t.Fatal(err)
	}
	s.Write("/local/domain/99/name", "late")
	s.Mkdir("/local/domain/3/device/vbd")

	if v, err := snapRead(sn, "/local/domain/1/name"); err != nil || v != "g1" {
		t.Fatalf("snapshot saw live write: %q, %v", v, err)
	}
	if !sn.Lookup("/local/domain/2/name").Exists() {
		t.Fatal("snapshot lost a node deleted later")
	}
	if sn.Lookup("/local/domain/99").Exists() {
		t.Fatal("snapshot gained a node created later")
	}
	if sn.Lookup("/local/domain/3/device/vbd").Exists() {
		t.Fatal("snapshot gained a directory made later")
	}
	if sn.NumNodes() != wantNodes {
		t.Fatalf("snapshot node count moved: %d -> %d", wantNodes, sn.NumNodes())
	}
	kids, err := snapDir(sn, "/local/domain")
	if err != nil || len(kids) != 5 {
		t.Fatalf("snapshot directory = %v, %v (want the 5 captured guests)", kids, err)
	}
	// And the live store did move.
	if v, _ := s.Read("/local/domain/1/name"); v != "renamed" {
		t.Fatalf("live read = %q", v)
	}
	if s.Exists("/local/domain/2") {
		t.Fatal("live delete lost")
	}
}

func TestSnapshotDoesNotChargeClock(t *testing.T) {
	s, clock := newStore()
	populateGuests(s, 20)
	before := clock.Now()
	sn := s.Snapshot()
	if _, err := snapRead(sn, "/local/domain/7/name"); err != nil {
		t.Fatal(err)
	}
	if _, err := snapDir(sn, "/local/domain"); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != before {
		t.Fatal("snapshot capture/reads charged the virtual clock")
	}
	if got := s.Count.Snapshots; got != 1 {
		t.Fatalf("Snapshots counter = %d, want 1", got)
	}
}

// TestStoreLookupReadsLiveTree: Store.Lookup reads the live tree as
// a snapshot would — values, children, missing nodes — without
// charging the clock, counting a snapshot or bumping the pool's
// snapshot epoch, so the nodes it reads stay recyclable.
func TestStoreLookupReadsLiveTree(t *testing.T) {
	s, clock := newStore()
	populateGuests(s, 20)
	before, epoch := clock.Now(), s.pl.epoch
	dom := s.Lookup("/local/domain/7")
	if v := dom.Child("name").Value(); v != "g7" {
		t.Fatalf("live name = %q, want g7", v)
	}
	if s.Lookup("/local/domain/99").Exists() || dom.Child("nope").Exists() {
		t.Fatal("missing node found")
	}
	n := 0
	s.Lookup("/local/domain").Each(func(string, Entry) { n++ })
	want, _ := snapDir(s.Snapshot(), "/local/domain")
	if n != len(want) {
		t.Fatalf("Each visited %d children, the snapshot lists %d", n, len(want))
	}
	if clock.Now() != before || s.Count.Snapshots != 1 || s.pl.epoch != epoch+1 {
		t.Fatalf("lookups charged %v, counted %d snapshots, moved the epoch %d -> %d",
			clock.Now().Sub(before), s.Count.Snapshots-1, epoch, s.pl.epoch-1)
	}
}

func TestSnapshotSerializeRoundTrip(t *testing.T) {
	s, _ := newStore()
	populateGuests(s, 7)
	sn := s.Snapshot()
	blob := sn.Serialize()
	back, err := DeserializeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	checkGenBound(t, back.root, back.gen)
	if back.NumNodes() != sn.NumNodes() {
		t.Fatalf("round trip node count %d != %d", back.NumNodes(), sn.NumNodes())
	}
	if v, err := snapRead(back, "/local/domain/3/name"); err != nil || v != "g3" {
		t.Fatalf("round-trip read = %q, %v", v, err)
	}
	d1, _ := snapDir(sn, "/local/domain")
	d2, err := snapDir(back, "/local/domain")
	if err != nil || len(d1) != len(d2) {
		t.Fatalf("round-trip directory = %v vs %v (%v)", d2, d1, err)
	}
	// Canonical format: re-serializing the round-tripped snapshot must
	// reproduce the exact bytes.
	if !bytes.Equal(back.Serialize(), blob) {
		t.Fatal("serialize(deserialize(blob)) != blob — format not canonical")
	}
}

func TestDeserializeRejectsMalformed(t *testing.T) {
	s, _ := newStore()
	populateGuests(s, 2)
	good := s.Snapshot().Serialize()
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("not-a-snapshot"),
		// An empty store in the retired format that carried per-node
		// owner and perm fields.
		"xsnap1":      []byte("xsnap1\n\x00\x01/\x00\x00\x00\x00\x00"),
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte{}, good...), 0x00),
		"flipped len": append([]byte{}, good...),
	}
	cases["flipped len"][len(snapMagic)+1] = 0xff // huge name length
	for name, blob := range cases {
		if _, err := DeserializeSnapshot(blob); err == nil {
			t.Errorf("%s: malformed blob accepted", name)
		} else if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: error %v is not ErrBadSnapshot", name, err)
		}
	}
}

func TestSubtreeSnapshotAndGraft(t *testing.T) {
	src, _ := newStore()
	populateGuests(src, 3)
	sub, err := src.Snapshot().Subtree("/local/domain/2")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := snapRead(sub, "/name"); err != nil || v != "g2" {
		t.Fatalf("subtree read = %q, %v", v, err)
	}

	dst, _ := newStore()
	dst.Write("/local/domain/9/placeholder", "x")
	fired := 0
	dst.Watch("/local/domain/9", "tok", func(string, string) { fired++ })
	if err := dst.GraftSnapshot(src.Snapshot(), "/local/domain/2", "/local/domain/9"); err != nil {
		t.Fatal(err)
	}
	checkGenBound(t, dst.root, dst.gen)
	if v, err := dst.Read("/local/domain/9/name"); err != nil || v != "g2" {
		t.Fatalf("grafted read = %q, %v", v, err)
	}
	if dst.Exists("/local/domain/9/placeholder") {
		t.Fatal("graft merged instead of replacing the destination")
	}
	if fired != 1 {
		t.Fatalf("graft fired %d watch events at dst, want 1", fired)
	}
	// Generation order must stay monotonic after grafting foreign-store
	// state: a fresh transaction must not see phantom conflicts.
	if err := dst.Txn(3, func(tx *Tx) error {
		if _, err := tx.ReadAt("/local/domain/9/name", ""); err != nil {
			return err
		}
		tx.Write("/local/domain/9/resumed", "1")
		return nil
	}); err != nil {
		t.Fatalf("txn after graft: %v", err)
	}

	// Graft from a serialized checkpoint (the migrate path).
	dst2, _ := newStore()
	blob := src.Snapshot().Serialize()
	back, err := DeserializeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	checkGenBound(t, back.root, back.gen)
	if err := dst2.GraftSnapshot(back, "/local/domain/2", "/local/domain/4"); err != nil {
		t.Fatal(err)
	}
	checkGenBound(t, dst2.root, dst2.gen)
	if v, err := dst2.Read("/local/domain/4/device/vif/0/state"); err != nil || v != "4" {
		t.Fatalf("deserialized graft read = %q, %v", v, err)
	}

	if err := dst.GraftSnapshot(sub, "/missing", "/x"); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("graft of missing src path: %v", err)
	}
	if err := dst.GraftSnapshot(sub, "/", "/"); err == nil {
		t.Fatal("graft onto the root accepted")
	}
}

// commitVif commits a vif device entry for guest 1 at value v: the
// frontend and backend directories of xenbus.WriteDeviceEntries, plus
// a sibling key named by v, so successive commits both rewrite paths
// and add children to directories an earlier commit wrote.
func commitVif(t *testing.T, s *Store, v string) {
	t.Helper()
	const fe, be = "/local/domain/1/device/vif/0", "/local/domain/0/backend/vif/1/0"
	tx := s.TxnStart()
	for _, k := range []string{"backend-id", "handle", "mac", "state"} {
		tx.Write(fe+"/"+k, v)
	}
	for _, k := range []string{"frontend-id", "handle", "mac", "online", "state"} {
		tx.Write(be+"/"+k, v)
	}
	tx.Write(fe+"/x"+v, v)
	tx.Write(be+"/x"+v, v)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// requireNotCurrent fails if any node or trie level reachable from n
// is current in p: a current object reachable from a snapshot is one a
// later mutation would edit in place.
func requireNotCurrent(t *testing.T, p *pool, n *node) {
	t.Helper()
	if p.current(n.ptag, n.birth) {
		t.Fatalf("snapshot node %q is current", n.name)
	}
	var walk func(a *amtNode)
	walk = func(a *amtNode) {
		if a == nil {
			return
		}
		if p.current(a.ptag, a.birth) {
			t.Fatalf("snapshot trie level under %q is current", n.name)
		}
		for _, sl := range a.slots {
			if sub, ok := sl.(*amtNode); ok {
				walk(sub)
			}
		}
	}
	walk(n.kids)
	n.eachChild(func(c *node) bool {
		requireNotCurrent(t, p, c)
		return true
	})
}

// TestCommitNeverEditsPublishedTree: mutations edit in place only
// objects drawn since the last snapshot. Snapshots taken between
// commits, plain writes and removals that rewrite their paths and add
// siblings beside them each serialize to the bytes they had when
// taken, and none of them reaches a current object.
func TestCommitNeverEditsPublishedTree(t *testing.T) {
	s, _ := newStore()
	populateGuests(s, 3)
	type frozen struct {
		sn   *Snapshot
		blob []byte
	}
	var snaps []frozen
	for i := 1; i <= 5; i++ {
		v := strconv.Itoa(i)
		commitVif(t, s, v)
		s.Write("/local/domain/1/device/vif/0/state", "w"+v)
		if i > 1 {
			if err := s.Rm("/local/domain/0/backend/vif/1/0/x" + strconv.Itoa(i-1)); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range snaps {
			requireNotCurrent(t, s.pl, f.sn.root)
		}
		if i%2 == 1 {
			sn := s.Snapshot()
			snaps = append(snaps, frozen{sn, sn.Serialize()})
		}
	}
	for i, f := range snaps {
		if !bytes.Equal(f.sn.Serialize(), f.blob) {
			t.Fatalf("snapshot %d changed after later mutations", i)
		}
	}
	if v, _ := s.Read("/local/domain/0/backend/vif/1/0/x5"); v != "5" {
		t.Fatalf("last commit lost: %q", v)
	}
}

func TestSnapshotAllocsFlat(t *testing.T) {
	// O(1) capture, allocation view: taking a snapshot allocates the
	// same tiny constant whether the store holds 10 or 10,000 guests'
	// worth of nodes.
	small, _ := newStore()
	populateGuests(small, 10)
	big, _ := newStore()
	populateGuests(big, 2000)
	a1 := testing.AllocsPerRun(100, func() { _ = small.Snapshot() })
	a2 := testing.AllocsPerRun(100, func() { _ = big.Snapshot() })
	if a1 != a2 {
		t.Fatalf("snapshot allocations scale with store size: %.1f at 10 guests vs %.1f at 2000", a1, a2)
	}
	if a1 > 1 {
		t.Fatalf("snapshot allocates %.1f objects, want ≤1", a1)
	}
}

// BenchmarkSnapshot is the O(1) acceptance benchmark: capture time
// must stay flat (within noise) from 10 to 10,000 guests' worth of
// store nodes.
func BenchmarkSnapshot(b *testing.B) {
	for _, guests := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("guests=%d", guests), func(b *testing.B) {
			s, _ := newStore()
			s.LoggingEnabled = false
			populateGuests(s, guests)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Snapshot()
			}
		})
	}
}
