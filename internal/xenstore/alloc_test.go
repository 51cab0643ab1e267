package xenstore

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// Allocation budgets for the store's hot paths. The experiment sweeps
// issue hundreds of store operations per guest creation (xl performs
// ~250), so per-op garbage multiplies into GC pressure at fig10/fig16
// volumes. These guards keep the allocation diet from silently
// regressing: path resolution must not allocate at all on a warm tree.

// warmPath is a realistic 5-level device path.
const warmPath = "/local/domain/7/device/vif"

func warmStore() *Store {
	s, _ := newStore()
	s.Write(warmPath+"/0/state", "1")
	s.Write(warmPath+"/0/mac", "00:16:3e:00:00:07")
	s.Write("/local/domain/7/name", "guest7")
	return s
}

// TestNodeSize pins the store node at 80 bytes on 64-bit platforms:
// every guest adds ~40 of them (§4.2), so a field that creeps back in
// moves the node into the next allocator size class. Subtree sizes are
// counted by walking the tree, never cached per node.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 80 {
		t.Fatalf("node is %d bytes, budget 80", got)
	}
}

// TestVocabularyNamesInterned: a node created under a store vocabulary
// word takes the shared interned string, so it does not keep the path
// it was first written under alive.
func TestVocabularyNamesInterned(t *testing.T) {
	s, _ := newStore()
	dir := "/local/domain/" + strconv.Itoa(1234) + "/device/vif/0"
	s.Write(dir+"/state", "1")
	n := s.root
	for _, seg := range []string{"local", "domain", "1234", "device", "vif", "0", "state"} {
		n = n.childByID(nameHash(seg), seg)
		w, vocab := internTab[seg]
		if shared := unsafe.StringData(n.name) == unsafe.StringData(w); vocab && !shared {
			t.Errorf("node %q does not share the interned string", seg)
		}
	}
}

func TestReadAllocFree(t *testing.T) {
	s := warmStore()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Read(warmPath + "/0/state"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Store.Read on a warm 5-level path allocates %.1f objects/op, want 0", allocs)
	}
}

func TestExistsAllocFree(t *testing.T) {
	s := warmStore()
	// Both the hit and the miss path must stay allocation-free: the
	// toolstacks probe for absent nodes constantly.
	allocs := testing.AllocsPerRun(200, func() {
		if !s.Exists(warmPath + "/0/state") {
			t.Fatal("node vanished")
		}
		if s.Exists(warmPath + "/9/state") {
			t.Fatal("phantom node")
		}
	})
	if allocs > 0 {
		t.Fatalf("Store.Exists allocates %.1f objects/op, want 0", allocs)
	}
}

func TestWriteWarmAllocBudget(t *testing.T) {
	s := warmStore()
	// An unrelated watch must not drag allocations into the write path:
	// the bucket index rules it out without building candidate sets.
	s.Watch("/backend/vbd", "tok", func(string, string) {})
	// A warm write copies the spine of the immutable tree — that is the
	// price of O(1) snapshots — but the copy must stay a small constant:
	// one node plus one or two trie levels per path component. Anything beyond the budget means structural
	// sharing broke and writes started copying whole directories.
	const writeAllocBudget = 32
	allocs := testing.AllocsPerRun(200, func() {
		s.Write(warmPath+"/0/state", "4")
	})
	if allocs > writeAllocBudget {
		t.Fatalf("Store.Write on a warm path allocates %.1f objects/op, budget %d (spine copy only)",
			allocs, writeAllocBudget)
	}
}

func TestWriteAllocsIndependentOfFanout(t *testing.T) {
	// The proof that writes copy spines, not directories: the per-write
	// allocation count must not grow with the number of siblings. A
	// naive copy-on-write (clone the whole children map) would allocate
	// O(fanout) here and fail by orders of magnitude.
	small := warmStore()
	base := testing.AllocsPerRun(200, func() {
		small.Write(warmPath+"/0/state", "4")
	})
	big := warmStore()
	for i := 0; i < 4096; i++ {
		big.Write(fmt.Sprintf("/local/domain/%d/name", i), "g")
	}
	wide := testing.AllocsPerRun(200, func() {
		big.Write(warmPath+"/0/state", "4")
	})
	// 4096 siblings add at most a couple of trie levels to the spine
	// (log32), never a fanout-proportional copy.
	if wide > base+8 {
		t.Fatalf("write allocations grew with fanout: %.1f objects/op at 4096 siblings vs %.1f at 3 — directory copied instead of shared",
			wide, base)
	}
}

// TestDirectoryLenAllocFree: xl counts /local/domain on every
// creation, so the count must cost no garbage however many guests the
// store holds.
func TestDirectoryLenAllocFree(t *testing.T) {
	s, _ := newStore()
	for i := 0; i < 64; i++ {
		s.Write(fmt.Sprintf("/local/domain/%d/name", i), "g")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if n, err := s.DirectoryLen("/local/domain"); err != nil || n != 64 {
			t.Fatalf("DirectoryLen = %d, %v", n, err)
		}
	})
	if allocs > 0 {
		t.Fatalf("DirectoryLen allocates %.1f objects/op, want 0", allocs)
	}
}

func TestWatchDeliveryScansOwnBucketOnly(t *testing.T) {
	s, _ := newStore()
	fired := 0
	s.Watch("/backend/vif", "t", func(string, string) { fired++ })
	// Pile unrelated watches into other buckets; delivery must still
	// work and root-level watches must still match everything.
	for i := 0; i < 50; i++ {
		s.Watch(fmt.Sprintf("/other%d", i), "t", func(string, string) { t.Fatal("unrelated watch fired") })
	}
	rootFired := 0
	s.Watch("/", "r", func(string, string) { rootFired++ })
	s.Write("/backend/vif/1/0/state", "1")
	if fired != 1 {
		t.Fatalf("subtree watch fired %d times, want 1", fired)
	}
	if rootFired != 1 {
		t.Fatalf("root watch fired %d times, want 1", rootFired)
	}
	// Simulated cost still models the full linear scan.
	if got := s.matchCost(); got != s.NumWatches() {
		t.Fatalf("matchCost = %d, want %d (modelled linear scan)", got, s.NumWatches())
	}
}

func TestWatchOrderPreservedAcrossBuckets(t *testing.T) {
	s, _ := newStore()
	var order []string
	s.Watch("/", "a", func(string, string) { order = append(order, "a") })
	s.Watch("/x", "b", func(string, string) { order = append(order, "b") })
	s.Watch("/", "c", func(string, string) { order = append(order, "c") })
	s.Watch("/x/y", "d", func(string, string) { order = append(order, "d") })
	s.Write("/x/y/z", "1")
	want := "a,b,c,d"
	got := ""
	for i, o := range order {
		if i > 0 {
			got += ","
		}
		got += o
	}
	if got != want {
		t.Fatalf("delivery order = %s, want %s (registration order)", got, want)
	}
}

func TestUnwatchRemovesFromIndex(t *testing.T) {
	s, _ := newStore()
	count := 0
	s.Watch("/a", "t1", func(string, string) { count++ })
	s.Watch("/a/b", "t2", func(string, string) { count++ })
	s.Watch("/a", "t3", func(string, string) { count++ })
	if n := s.UnwatchByToken("t1"); n != 1 {
		t.Fatalf("UnwatchByToken(t1) removed %d, want 1", n)
	}
	s.Write("/a/b/c", "1")
	if count != 2 {
		t.Fatalf("fired %d times after removing t1, want 2", count)
	}
	for _, tok := range []string{"t2", "t3"} {
		if n := s.UnwatchByToken(tok); n != 1 {
			t.Fatalf("UnwatchByToken(%s) removed %d, want 1", tok, n)
		}
	}
	s.Write("/a/b/c", "2")
	if count != 2 {
		t.Fatalf("fired %d times after removing every watch, want 2", count)
	}
	if len(s.watchIndex) != 0 || len(s.rootWatches) != 0 {
		t.Fatalf("index keeps %d buckets, %d root watches", len(s.watchIndex), len(s.rootWatches))
	}
}

// churnTxn is one serving-churn step: a transaction writing 12 nodes
// under domain id (never reused), then the domain's teardown, so the
// tree itself stays the same size however long the churn runs.
func churnTxn(tb testing.TB, s *Store, id int) {
	dom := "/local/domain/" + strconv.Itoa(id)
	err := s.Txn(0, func(tx *Tx) error {
		tx.Write(dom+"/name", "guest")
		tx.Write(dom+"/domid", "1")
		tx.Write(dom+"/memory/target", "4096")
		tx.Write(dom+"/control/shutdown", "")
		for _, dev := range []string{"/device/vif/0", "/device/vbd/0", "/device/console/0"} {
			tx.Write(dom+dev+"/state", "1")
			tx.Write(dom+dev+"/backend-id", "0")
		}
		tx.Write(dom+"/console/ring-ref", "8")
		tx.Write(dom+"/store/port", "1")
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Rm(dom); err != nil {
		tb.Fatal(err)
	}
}

// TestTxnChurnAllocsHistoryIndependent guards against transaction
// state that outlives the transaction: serving churn never reuses a VM
// name, so anything the store keeps per distinct path grows for the
// whole run. The bytes allocated by the last 1,000 of 40,000 churn
// transactions must be within 5% of the first 1,000's, and one
// transaction on the churned store must allocate exactly as many
// objects as on a fresh one.
func TestTxnChurnAllocsHistoryIndependent(t *testing.T) {
	const total, window = 40000, 1000
	s, _ := newStore()
	id := 100000 // six digits throughout, so every path has the same length
	churn := func(n int) {
		for i := 0; i < n; i++ {
			churnTxn(t, s, id)
			id++
		}
	}
	allocated := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		churn(n)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := allocated(window)
	churn(total - 2*window)
	last := allocated(window)
	if d := float64(last) - float64(first); math.Abs(d) > 0.05*float64(first) {
		t.Fatalf("last %d churn txns allocated %d bytes vs %d for the first %d (%+.1f%%), want within 5%%",
			window, last, first, window, 100*d/float64(first))
	}

	churned := testing.AllocsPerRun(100, func() { churn(1) })
	fresh, _ := newStore()
	freshID := 100000
	want := testing.AllocsPerRun(100, func() { churnTxn(t, fresh, freshID); freshID++ })
	if churned != want {
		t.Fatalf("churn txn allocates %.1f objects after %d txns vs %.1f on a fresh store", churned, total, want)
	}
}

// TestTxnCommitCopiesSpineOnce pins what a commit allocates. Six
// writes rewrite leaves of one device directory seven levels deep.
// Warm, the pool recycles everything the commit replaces, so the only
// allocation is the Tx handle. With the snapshot epoch bumped before
// each commit nothing may recycle, and the count is the commit's own
// objects: each of the 7 spine nodes (/, local, domain, 1, device, vif,
// 0) once, each of their 7 trie levels once (2 objects: the level and
// its slot array), the 6 rewritten leaves and the Tx handle — 28.
// Applying the writes one by one would copy the spine per write:
// 6 × (7 + 2×7 + 1) + 1 = 133.
func TestTxnCommitCopiesSpineOnce(t *testing.T) {
	const dir = "/local/domain/1/device/vif/0"
	keys := []string{"backend", "backend-id", "handle", "mac", "state", "event-channel"}
	s, _ := newStore()
	for _, k := range keys {
		s.Write(dir+"/"+k, "0")
	}
	// The hand count assumes every directory keeps its children in a
	// single trie level (no two keys share their first 5 hash bits).
	for p := "/"; ; {
		n, _ := s.resolve(p)
		for _, sl := range n.kids.slots {
			if _, ok := sl.(*node); !ok {
				t.Fatalf("%s keeps its children in more than one trie level", p)
			}
		}
		if p == dir {
			break
		}
		seg, _ := n.kids.slots[0].(*node)
		p = strings.TrimSuffix(p, "/") + "/" + seg.name
	}
	paths := make([]string, len(keys))
	for i, k := range keys {
		paths[i] = dir + "/" + k
	}
	commit := func() {
		tx := s.TxnStart()
		for _, p := range paths {
			tx.Write(p, "1")
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, commit); got != 1 {
		t.Fatalf("warm commit allocates %.1f objects, want 1 (the Tx handle)", got)
	}
	s.pl.freeN, s.pl.freeA = nil, [len(amtBrackets)][]*amtNode{}
	got := testing.AllocsPerRun(100, func() {
		s.pl.epoch++
		commit()
	})
	if want := 7 + 2*7 + len(keys) + 1; got != float64(want) {
		t.Fatalf("commit with recycling off allocates %.1f objects, want %d (spine copied once per commit)", got, want)
	}
}

// TestDeserializeSizesLevels decodes a 1,000-guest store plus one
// 20-child directory (10,024 nodes). Each decoded trie level is
// allocated once, at its final slot count and that count's bracket
// capacity, so no level's array is outgrown while its children are
// read. Before levels were sized up front the decode made 27,241
// allocations, about 2,470 of them arrays that append outgrew; sized
// levels make 24,766.
func TestDeserializeSizesLevels(t *testing.T) {
	s := guestStore()
	for i := range 20 {
		s.Write(fmt.Sprintf("/wide/c%02d", i), "v")
	}
	blob := s.Snapshot().Serialize()
	sn, err := DeserializeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n := sn.NumNodes(); n != 10024 {
		t.Fatalf("fixture has %d nodes, want 10024", n)
	}
	var check func(n *node)
	check = func(n *node) {
		var level func(a *amtNode)
		level = func(a *amtNode) {
			if a == nil {
				return
			}
			if a.ptag != 0 {
				t.Fatalf("decoded level under %q is pooled (ptag %d)", n.name, a.ptag)
			}
			if l := len(a.slots); cap(a.slots) != amtBrackets[amtBracketOf[l]] {
				t.Fatalf("decoded level under %q has %d slots and capacity %d, want %d", n.name, l, cap(a.slots), amtBrackets[amtBracketOf[l]])
			}
			for _, s := range a.slots {
				switch e := s.(type) {
				case *node:
					check(e)
				case *amtNode:
					level(e)
				}
			}
		}
		level(n.kids)
	}
	check(sn.root)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DeserializeSnapshot(blob); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per decode", allocs)
	if allocs > 24800 {
		t.Fatalf("decode makes %.0f allocations, want at most 24800", allocs)
	}
}

// TestEntryWalkAllocFree walks every guest's vif directory in a
// 1,000-guest snapshot through Entry handles: the walk builds no path
// and no listing, so it allocates nothing.
func TestEntryWalkAllocFree(t *testing.T) {
	sn := guestStore().Snapshot()
	local := sn.Lookup("/local/domain")
	found := 0
	allocs := testing.AllocsPerRun(5, func() {
		found = 0
		local.Each(func(_ string, dom Entry) {
			if dom.Child("device").Child("vif").Child("0").Child("state").Value() == "4" {
				found++
			}
		})
	})
	if found != 1000 {
		t.Fatalf("walk found %d vif states, want 1000", found)
	}
	if allocs != 0 {
		t.Fatalf("entry walk allocates %.1f objects, want 0", allocs)
	}
	if sn.Lookup("/local/nowhere").Child("x").Exists() {
		t.Fatal("a missing entry has children")
	}
}
