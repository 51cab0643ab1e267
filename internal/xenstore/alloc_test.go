package xenstore

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"testing"
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
	// one node plus one or two trie levels per path component, plus the
	// published treeState. Anything beyond the budget means structural
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

func TestDirectoryAppendReusesBuffer(t *testing.T) {
	s, _ := newStore()
	for i := 0; i < 64; i++ {
		s.Write(fmt.Sprintf("/local/domain/%d/name", i), "g")
	}
	buf, err := s.DirectoryAppend("/local/domain", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 64 {
		t.Fatalf("listing = %d entries", len(buf))
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = s.DirectoryAppend("/local/domain", buf)
		if err != nil || len(buf) != 64 {
			t.Fatalf("DirectoryAppend = %d entries, %v", len(buf), err)
		}
	})
	if allocs > 0 {
		t.Fatalf("DirectoryAppend with a warm buffer allocates %.1f objects/op, want 0", allocs)
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
	if got := s.matchCost("/backend/vif/1/0/state"); got != s.NumWatches() {
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
	id := s.Watch("/a", "t1", func(string, string) { count++ })
	s.Watch("/a/b", "t2", func(string, string) { count++ })
	s.Unwatch(id)
	s.Write("/a/b/c", "1")
	if count != 1 {
		t.Fatalf("fired %d times after Unwatch, want 1", count)
	}
	if n := s.UnwatchByToken("t2"); n != 1 {
		t.Fatalf("UnwatchByToken removed %d, want 1", n)
	}
	s.Write("/a/b/c", "2")
	if count != 1 {
		t.Fatalf("fired %d times after UnwatchByToken, want 1", count)
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
