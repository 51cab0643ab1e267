package xenstore

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/sim"
)

func newStore() (*Store, *sim.Clock) {
	c := sim.NewClock()
	return New(c), c
}

func TestWriteRead(t *testing.T) {
	s, _ := newStore()
	s.Write("/local/domain/1/name", "guest1")
	v, err := s.Read("/local/domain/1/name")
	if err != nil || v != "guest1" {
		t.Fatalf("Read = %q, %v", v, err)
	}
	if _, err := s.Read("/local/domain/2/name"); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("missing node: %v", err)
	}
}

func TestIntermediateDirectoriesCreated(t *testing.T) {
	s, _ := newStore()
	s.Write("/a/b/c/d", "x")
	if !s.Exists("/a/b") {
		t.Fatal("intermediate dir missing")
	}
	names, err := s.Directory("/a/b")
	if err != nil || len(names) != 1 || names[0] != "c" {
		t.Fatalf("Directory = %v, %v", names, err)
	}
}

func TestDirectorySorted(t *testing.T) {
	s, _ := newStore()
	for _, k := range []string{"z", "a", "m"} {
		s.Write("/dir/"+k, k)
	}
	names, _ := s.Directory("/dir")
	if len(names) != 3 || names[0] != "a" || names[1] != "m" || names[2] != "z" {
		t.Fatalf("Directory = %v", names)
	}
}

func TestRmSubtree(t *testing.T) {
	s, _ := newStore()
	s.Write("/a/b/c", "1")
	s.Write("/a/b/d", "2")
	s.Write("/a/e", "3")
	if err := s.Rm("/a/b"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/a/b/c") || s.Exists("/a/b") {
		t.Fatal("subtree survived Rm")
	}
	if !s.Exists("/a/e") {
		t.Fatal("sibling removed")
	}
	if err := s.Rm("/a/b"); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("double Rm: %v", err)
	}
	if err := s.Rm("/"); err == nil {
		t.Fatal("root Rm accepted")
	}
}

// TestRmChargesSubtreeNodes pins Rm's price: one round trip plus one
// node touch per ancestor reached, per node of the removed subtree and
// per registered watch (the daemon's match scan), plus one delivery
// per watch that fires. Every expectation below is a hand count.
func TestRmChargesSubtreeNodes(t *testing.T) {
	rtt := costs.XSRequestInterrupts*costs.SoftIRQ + costs.XSRequestCrossings*costs.DomainCrossing + costs.XSProcess
	// rm removes path and checks the touched-node count and the
	// virtual time charged against a hand count.
	rm := func(t *testing.T, s *Store, c *sim.Clock, path string, touched uint64, fires int, wantErr error) {
		t.Helper()
		n0, t0 := s.Count.NodesTouched, c.Now()
		if err := s.Rm(path); !errors.Is(err, wantErr) {
			t.Fatalf("Rm(%s) = %v, want %v", path, err, wantErr)
		}
		if got := s.Count.NodesTouched - n0; got != touched {
			t.Fatalf("Rm(%s) touched %d nodes, want %d", path, got, touched)
		}
		want := rtt + sim.Duration(touched)*costs.XSPerNodeTouch + sim.Duration(fires)*costs.XSWatchFire
		if got := c.Now().Sub(t0); got != want {
			t.Fatalf("Rm(%s) charged %v, want %v", path, got, want)
		}
	}
	fresh := func() (*Store, *sim.Clock) {
		s, c := newStore()
		s.LoggingEnabled = false
		s.Write("/local/domain/6/name", "other")
		return s, c
	}

	t.Run("nested", func(t *testing.T) {
		s, c := fresh()
		for _, p := range []string{"/device/vif/0/state", "/device/vif/0/mac", "/device/vbd/1/state", "/name"} {
			s.Write("/local/domain/5"+p, "v")
		}
		fired := 0
		s.Watch("/local/domain/5", "mine", func(string, string) { fired++ })
		s.Watch("/local/domain/6", "other", func(string, string) { fired++ })
		// Ancestors reached: /, local, domain (3). Subtree: 5, device,
		// vif, 0, state, mac, vbd, 1, state, name (10). Registered
		// watches: 2, of which the one on /local/domain/5 fires.
		rm(t, s, c, "/local/domain/5", 3+10+2, 1, nil)
		if fired != 1 {
			t.Fatalf("%d watches fired, want 1", fired)
		}
		// A leaf: ancestors /, local, domain, 6 (4), subtree 1, both
		// watches scanned, the one on /local/domain/6 fires.
		rm(t, s, c, "/local/domain/6/name", 4+1+2, 1, nil)
	})

	t.Run("wide", func(t *testing.T) {
		s, c := fresh()
		for i := 0; i < 40; i++ {
			s.Write(fmt.Sprintf("/local/domain/7/k%d", i), "v")
		}
		// 40 children overflow one 32-slot trie level, so the count
		// must descend nested levels. Ancestors: /, local, domain (3).
		// Subtree: 7 and its 40 children (41). No watches.
		rm(t, s, c, "/local/domain/7", 3+41, 0, nil)
	})

	t.Run("grafted", func(t *testing.T) {
		src, _ := newStore()
		for _, p := range []string{"/vm/a/b", "/vm/a/c", "/vm/d"} {
			src.Write(p, "v")
		}
		blob, err := src.SerializeSubtree("/vm")
		if err != nil {
			t.Fatal(err)
		}
		sn, err := DeserializeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		s, c := fresh()
		if err := s.GraftSnapshot(sn, "/", "/local/domain/9"); err != nil {
			t.Fatal(err)
		}
		checkGenBound(t, s.loaded().root, s.gen)
		s.Write("/local/domain/9/a/e", "v")
		// Ancestors: /, local, domain (3). Subtree: 9 (the grafted
		// root), a, b, c, e, d (6). No watches.
		rm(t, s, c, "/local/domain/9", 3+6, 0, nil)
	})

	t.Run("missing", func(t *testing.T) {
		s, c := fresh()
		s.Watch("/local/domain/42", "w", func(string, string) { t.Fatal("watch fired on a failed Rm") })
		// The walk reaches /, local and domain, then finds no 42: no
		// subtree, no watch scan, no delivery.
		rm(t, s, c, "/local/domain/42", 3, 0, ErrNoEnt)
		// It stops at the first missing ancestor: /, local.
		rm(t, s, c, "/local/nope/x", 2, 0, ErrNoEnt)
	})
}

func TestNumNodes(t *testing.T) {
	s, _ := newStore()
	if s.NumNodes() != 0 {
		t.Fatalf("empty store has %d nodes", s.NumNodes())
	}
	s.Write("/a/b", "1") // creates a, b
	s.Write("/a/c", "2") // creates c
	if s.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", s.NumNodes())
	}
}

func TestOpsChargeClock(t *testing.T) {
	s, c := newStore()
	before := c.Now()
	s.Write("/x", "1")
	if c.Now() <= before {
		t.Fatal("write charged no time")
	}
	perOp := c.Now().Sub(before)
	min := costs.XSRequestInterrupts*costs.SoftIRQ + costs.XSRequestCrossings*costs.DomainCrossing
	if perOp < min {
		t.Fatalf("op cost %v below protocol floor %v", perOp, min)
	}
}

func TestLogRotationSpike(t *testing.T) {
	s, c := newStore()
	// Drive just under the rotation threshold, then measure the spike.
	for i := 0; i < costs.XSLogRotateLines-1; i++ {
		s.logAccess()
	}
	before := c.Now()
	s.logAccess()
	spike := c.Now().Sub(before)
	if spike < costs.XSLogRotateCost {
		t.Fatalf("rotation charged %v, want ≥%v", spike, costs.XSLogRotateCost)
	}
	if s.Count.LogRotations != 1 {
		t.Fatalf("rotations = %d", s.Count.LogRotations)
	}
}

func TestLoggingDisabledNoRotation(t *testing.T) {
	s, c := newStore()
	s.LoggingEnabled = false
	for i := 0; i < 2*costs.XSLogRotateLines; i++ {
		s.logAccess()
	}
	if s.Count.LogRotations != 0 || c.Now() != 0 {
		t.Fatal("disabled logging still charged")
	}
}

func TestWatchFiresOnSubtree(t *testing.T) {
	s, _ := newStore()
	var fired []string
	s.Watch("/backend/vif", "tok", func(path, token string) {
		fired = append(fired, path+"#"+token)
	})
	s.Write("/backend/vif/1/0/state", "1") // below prefix → fires
	s.Write("/backend/vbd/1/0/state", "1") // other tree → no fire
	s.Write("/backend/vif", "x")           // node itself → fires
	if len(fired) != 2 {
		t.Fatalf("watch fired %d times: %v", len(fired), fired)
	}
	if fired[0] != "/backend/vif/1/0/state#tok" {
		t.Fatalf("first fire = %q", fired[0])
	}
}

func TestWatchNotFiredOnPrefixSibling(t *testing.T) {
	s, _ := newStore()
	count := 0
	s.Watch("/backend/vif", "t", func(string, string) { count++ })
	s.Write("/backend/vif2/1", "x") // shares string prefix, different node
	if count != 0 {
		t.Fatal("watch fired on sibling with shared name prefix")
	}
}

func TestUnwatch(t *testing.T) {
	s, _ := newStore()
	count := 0
	s.Watch("/a", "t", func(string, string) { count++ })
	s.Write("/a/x", "1")
	if n := s.UnwatchByToken("t"); n != 1 {
		t.Fatalf("UnwatchByToken removed %d, want 1", n)
	}
	s.Write("/a/y", "2")
	if count != 1 {
		t.Fatalf("fired %d times, want 1", count)
	}
	if s.NumWatches() != 0 {
		t.Fatal("watch not removed")
	}
}

func TestWatchFiresOnRmAndMkdir(t *testing.T) {
	s, _ := newStore()
	count := 0
	s.Watch("/a", "t", func(string, string) { count++ })
	s.Write("/a/x", "1") // fire 1
	if err := s.Rm("/a/x"); err != nil {
		t.Fatal(err)
	} // fire 2
	s.Mkdir("/a/dir") // fire 3
	s.Mkdir("/a/dir") // already exists → no fire
	if count != 3 {
		t.Fatalf("fired %d times, want 3", count)
	}
}

func TestTxnBasicCommit(t *testing.T) {
	s, _ := newStore()
	tx := s.TxnStart()
	tx.Write("/a/b", "1")
	tx.Write("/a/c", "2")
	if s.Exists("/a/b") {
		t.Fatal("txn write visible before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Read("/a/b"); v != "1" {
		t.Fatal("txn write lost")
	}
}

func TestTxnReadsOwnWrites(t *testing.T) {
	s, _ := newStore()
	tx := s.TxnStart()
	tx.Write("/a", "own")
	if v, err := tx.Read("/a"); err != nil || v != "own" {
		t.Fatalf("own write invisible: %q %v", v, err)
	}
	tx.Abort()
}

func TestTxnConflictOnRead(t *testing.T) {
	s, _ := newStore()
	s.Write("/k", "old")
	tx := s.TxnStart()
	if _, err := tx.Read("/k"); err != nil {
		t.Fatal(err)
	}
	s.Write("/k", "interloper") // concurrent modification
	tx.Write("/other", "x")
	if err := tx.Commit(); !errors.Is(err, ErrAgain) {
		t.Fatalf("conflicting commit: %v", err)
	}
	if s.Count.TxnConflicts != 1 {
		t.Fatalf("conflicts = %d", s.Count.TxnConflicts)
	}
}

// TestTxnValidationFirstObservedOrder pins the order Commit validates
// reads in: the transaction's own first-observed order, whatever other
// transactions observed before. A conflict on the second of three
// reads stops validation there, so the commit charges exactly 2 read
// touches plus its own round trip.
func TestTxnValidationFirstObservedOrder(t *testing.T) {
	s, _ := newStore()
	for _, p := range []string{"/a", "/b", "/c"} {
		s.Write(p, "v")
	}
	// An earlier transaction observes the same nodes in another order.
	prior := s.TxnStart()
	for _, p := range []string{"/c", "/a", "/b"} {
		if _, err := prior.Read(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := prior.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := s.TxnStart()
	for _, p := range []string{"/a", "/b", "/c"} {
		if _, err := tx.Read(p); err != nil {
			t.Fatal(err)
		}
	}
	s.Write("/b", "interloper")
	before := s.Count.NodesTouched
	if err := tx.Commit(); !errors.Is(err, ErrAgain) {
		t.Fatalf("conflicting commit: %v", err)
	}
	if got := s.Count.NodesTouched - before; got != 3 {
		t.Fatalf("commit touched %d nodes, want 3 (reads /a and /b, then the round trip)", got)
	}
}

func TestTxnConflictOnWrittenNode(t *testing.T) {
	s, _ := newStore()
	tx := s.TxnStart()
	tx.Write("/k", "mine")
	s.Write("/k", "theirs")
	if err := tx.Commit(); !errors.Is(err, ErrAgain) {
		t.Fatalf("write-write conflict: %v", err)
	}
	if v, _ := s.Read("/k"); v != "theirs" {
		t.Fatal("failed commit clobbered store")
	}
}

func TestTxnConflictOnAppearance(t *testing.T) {
	s, _ := newStore()
	tx := s.TxnStart()
	if _, err := tx.Read("/new"); !errors.Is(err, ErrNoEnt) {
		t.Fatalf("phantom node: %v", err)
	}
	s.Write("/new", "appeared")
	tx.Write("/x", "1")
	if err := tx.Commit(); !errors.Is(err, ErrAgain) {
		t.Fatalf("appearance conflict: %v", err)
	}
}

func TestTxnNoFalseConflict(t *testing.T) {
	s, _ := newStore()
	s.Write("/a", "1")
	tx := s.TxnStart()
	if _, err := tx.Read("/a"); err != nil {
		t.Fatal(err)
	}
	s.Write("/unrelated", "2")
	tx.Write("/b", "3")
	if err := tx.Commit(); err != nil {
		t.Fatalf("unrelated write caused conflict: %v", err)
	}
}

// TestTxnQuietCommitChargesLikeWalk pins the quiet-commit shortcut
// (txn.go) against the validation walk. A commit with a publish to an
// unrelated path between TxnStart and Commit walks; the same commit
// with nothing published in between skips the walk. Both must charge
// identical node touches and virtual time. A publish to an observed or
// written path must still conflict, at the read or write that changed.
func TestTxnQuietCommitChargesLikeWalk(t *testing.T) {
	reads := []string{"/a", "/b", "/c"}
	writes := []string{"/w1", "/w2"}
	// commit runs the transaction, calling between after its reads and
	// writes, and returns the node touches and virtual time the Commit
	// call alone charged, with its error.
	commit := func(between func(s *Store)) (uint64, sim.Duration, error) {
		s, c := newStore()
		for _, p := range append(append([]string{}, reads...), writes...) {
			s.Write(p, "v")
		}
		s.Watch("/", "all", func(string, string) {})
		tx := s.TxnStart()
		for _, p := range reads {
			if _, err := tx.Read(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range writes {
			tx.Write(p, "mine")
		}
		between(s)
		touched, now := s.Count.NodesTouched, c.Now()
		err := tx.Commit()
		return s.Count.NodesTouched - touched, c.Now().Sub(now), err
	}
	touchedQ, timeQ, errQ := commit(func(*Store) {})
	touchedW, timeW, errW := commit(func(s *Store) { s.Write("/unrelated", "x") })
	if errQ != nil || errW != nil {
		t.Fatalf("commits failed: quiet %v, walked %v", errQ, errW)
	}
	if touchedQ != touchedW || timeQ != timeW {
		t.Fatalf("quiet commit charged %d touches in %v, walked %d in %v", touchedQ, timeQ, touchedW, timeW)
	}
	// Validation stops at the first conflict: reads in first-observed
	// order, then writes; each checked path is one touch, plus the
	// round trip.
	for _, tc := range []struct {
		path    string
		touched uint64
	}{
		{"/b", 2 + 1},
		{"/c", 3 + 1},
		{"/w1", 3 + 1 + 1},
		{"/w2", 3 + 2 + 1},
	} {
		touched, _, err := commit(func(s *Store) { s.Write(tc.path, "theirs") })
		if !errors.Is(err, ErrAgain) || touched != tc.touched {
			t.Errorf("publish to %s: commit %v touching %d, want ErrAgain touching %d", tc.path, err, touched, tc.touched)
		}
	}
}

func TestTxnHelperRetries(t *testing.T) {
	s, _ := newStore()
	s.Write("/k", "0")
	attempts := 0
	err := s.Txn(5, func(tx *Tx) error {
		attempts++
		if _, err := tx.Read("/k"); err != nil {
			return err
		}
		if attempts == 1 {
			s.Write("/k", "bump") // force one conflict
		}
		tx.Write("/out", fmt.Sprint(attempts))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if v, _ := s.Read("/out"); v != "2" {
		t.Fatalf("committed value %q", v)
	}
}

func TestTxnHelperGivesUp(t *testing.T) {
	s, _ := newStore()
	s.Write("/k", "0")
	err := s.Txn(2, func(tx *Tx) error {
		if _, err := tx.Read("/k"); err != nil {
			return err
		}
		s.Write("/k", "always-conflict")
		tx.Write("/out", "x")
		return nil
	})
	if !errors.Is(err, ErrAgain) {
		t.Fatalf("exhausted retries: %v", err)
	}
}

func TestTxnBodyErrorAborts(t *testing.T) {
	s, _ := newStore()
	sentinel := errors.New("boom")
	err := s.Txn(3, func(tx *Tx) error {
		tx.Write("/x", "1")
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if s.Exists("/x") {
		t.Fatal("aborted txn leaked writes")
	}
	if len(s.openTxns) != 0 {
		t.Fatal("txn table leak")
	}
}

func TestCommitTwiceRejected(t *testing.T) {
	s, _ := newStore()
	tx := s.TxnStart()
	tx.Write("/a", "1")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrBadTxn) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestUniqueNameScanLinearCost(t *testing.T) {
	s, c := newStore()
	for i := 0; i < 50; i++ {
		if err := s.WriteUniqueName("/vm-names", fmt.Sprintf("k%d", i), fmt.Sprintf("guest%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate must be rejected.
	if err := s.WriteUniqueName("/vm-names", "dup", "guest7"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate name: %v", err)
	}
	// Cost of adding one more name grows with population: compare the
	// 51st insert against the 1st.
	s2, c2 := newStore()
	before2 := c2.Now()
	_ = s2.WriteUniqueName("/vm-names", "k0", "g0")
	first := c2.Now().Sub(before2)
	before := c.Now()
	_ = s.WriteUniqueName("/vm-names", "k50", "guest-new")
	nth := c.Now().Sub(before)
	if nth <= first {
		t.Fatalf("uniqueness scan not linear: first=%v nth=%v", first, nth)
	}
}

func TestUniqueNameChargesSuccessScan(t *testing.T) {
	// The §4.2 uniqueness scan costs a full pass over the registered
	// names whether or not it finds a duplicate; the success path must
	// charge it too, not only the rejection path.
	const population = 40
	s, c := newStore()
	for i := 0; i < population; i++ {
		if err := s.WriteUniqueName("/vm-names", fmt.Sprintf("k%d", i), fmt.Sprintf("g%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Now()
	opsBefore := s.Count.Ops
	if err := s.WriteUniqueName("/vm-names", "kx", "g-new"); err != nil {
		t.Fatal(err)
	}
	cost := c.Now().Sub(before)
	// Baseline: the same write without the uniqueness protocol.
	s2, c2 := newStore()
	for i := 0; i < population; i++ {
		s2.Write(fmt.Sprintf("/vm-names/k%d", i), fmt.Sprintf("g%d", i))
	}
	before2 := c2.Now()
	s2.Write("/vm-names/kx", "g-new")
	plain := c2.Now().Sub(before2)
	minExtra := time.Duration(population) * costs.XSNameUniquenessPerGuest
	if cost-plain < minExtra {
		t.Fatalf("successful WriteUniqueName charged only %v over a plain write, want ≥%v scan cost", cost-plain, minExtra)
	}
	// The scan is charged as a store-daemon op of its own.
	if got := s.Count.Ops - opsBefore; got != 2 {
		t.Fatalf("successful WriteUniqueName charged %d ops, want 2 (scan + write)", got)
	}
}

func TestWatchCostGrowsWithWatches(t *testing.T) {
	s, c := newStore()
	s.Write("/warm", "up")
	before := c.Now()
	s.Write("/k", "v")
	cheap := c.Now().Sub(before)
	for i := 0; i < 200; i++ {
		s.Watch(fmt.Sprintf("/w/%d", i), "t", func(string, string) {})
	}
	before = c.Now()
	s.Write("/k", "v2")
	costly := c.Now().Sub(before)
	if costly <= cheap {
		t.Fatalf("watch matching cost did not grow: %v vs %v", cheap, costly)
	}
}

// Property: committed transactions are atomic — either every write in
// the txn is visible or none is.
func TestTxnAtomicityQuick(t *testing.T) {
	f := func(keys []uint8, conflict bool) bool {
		if len(keys) == 0 {
			return true
		}
		s, _ := newStore()
		s.Write("/guard", "0")
		tx := s.TxnStart()
		if _, err := tx.Read("/guard"); err != nil {
			return false
		}
		for i, k := range keys {
			tx.Write(fmt.Sprintf("/t/%d_%d", i, k), "v")
		}
		if conflict {
			s.Write("/guard", "1")
		}
		err := tx.Commit()
		visible := 0
		for i, k := range keys {
			if s.Exists(fmt.Sprintf("/t/%d_%d", i, k)) {
				visible++
			}
		}
		if err == nil {
			return visible == len(keys)
		}
		return visible == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// commitDevice commits a device-shaped write set: three writes under
// /dev, the first to a path that existed before the commit.
func commitDevice(t *testing.T, s *Store) {
	t.Helper()
	tx := s.TxnStart()
	tx.Write("/dev/a", "1")
	tx.Write("/dev/b", "new")
	tx.Write("/dev/c", "new")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnCommitAtomicForWatches: a watch fired by a commit's first
// write reads the paths of its later writes and sees their committed
// values — the commit is applied whole before any watch fires, one
// existing node (/dev/b) and one new node (/dev/c) alike.
func TestTxnCommitAtomicForWatches(t *testing.T) {
	s, _ := newStore()
	s.Write("/dev/b", "old")
	var seen []string
	s.Watch("/dev/a", "t", func(string, string) {
		for _, p := range []string{"/dev/b", "/dev/c"} {
			v, err := s.Read(p)
			seen = append(seen, fmt.Sprintf("%s=%q err=%v", p, v, err))
		}
	})
	commitDevice(t, s)
	want := []string{`/dev/b="new" err=<nil>`, `/dev/c="new" err=<nil>`}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("watch on the first write saw %v, want %v", seen, want)
	}
}

// TestTxnCommitAtomicForClockEvents: clock events that run during a
// commit's charges see all of its writes or none of them (none only
// before the commit applies), and at least one runs after it applies.
func TestTxnCommitAtomicForClockEvents(t *testing.T) {
	s, c := newStore()
	s.Write("/dev/b", "old")
	var seen []int
	done := false
	var tick func()
	tick = func() {
		if done {
			return
		}
		sn := s.Snapshot()
		n := 0
		for _, p := range []string{"/dev/a", "/dev/b", "/dev/c"} {
			if v, _ := sn.Read(p); v == "1" || v == "new" {
				n++
			}
		}
		seen = append(seen, n)
		c.After(time.Microsecond, tick)
	}
	c.After(time.Microsecond, tick)
	commitDevice(t, s)
	done = true
	full := 0
	for i, n := range seen {
		switch n {
		case 3:
			full++
		case 0:
			if full > 0 {
				t.Fatalf("event %d of %d saw the commit undone", i, len(seen))
			}
		default:
			t.Fatalf("event %d of %d saw %d of 3 writes", i, len(seen), n)
		}
	}
	if full == 0 {
		t.Fatalf("none of %d events ran after the commit applied", len(seen))
	}
}

// TestTxnCommitPublishesOnce: a commit publishes one tree version
// however many writes it carries; a read-only commit publishes none.
func TestTxnCommitPublishesOnce(t *testing.T) {
	s, _ := newStore()
	s.Write("/dev/b", "old")
	before := s.pubs
	commitDevice(t, s)
	if got := s.pubs - before; got != 1 {
		t.Fatalf("3-write commit published %d times, want 1", got)
	}
	before = s.pubs
	tx := s.TxnStart()
	if _, err := tx.Read("/dev/a"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.pubs - before; got != 0 {
		t.Fatalf("read-only commit published %d times, want 0", got)
	}
}

func TestConnectionCountSlowsOps(t *testing.T) {
	s, c := newStore()
	before := c.Now()
	s.Write("/k", "1")
	idle := c.Now().Sub(before)
	s.Connections = 1000
	before = c.Now()
	s.Write("/k", "2")
	loaded := c.Now().Sub(before)
	if loaded <= idle {
		t.Fatalf("op under 1000 connections (%v) not slower than idle (%v)", loaded, idle)
	}
	if loaded-idle < 1000*costs.XSPerConnection {
		t.Fatalf("connection scan under-charged: delta=%v", loaded-idle)
	}
}
