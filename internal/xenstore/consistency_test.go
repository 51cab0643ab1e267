package xenstore

import (
	"strings"
	"testing"
)

func TestCheckConsistencyDetectsCorruption(t *testing.T) {
	s, _ := newStore()
	s.Write("/a/b", "v")
	s.Write("/a/c", "v")
	if v := s.CheckConsistency(); len(v) != 0 {
		t.Fatalf("clean store reported: %v", v)
	}
	before := s.clock.Now()
	n, _ := s.resolve("/a")
	n.nkids-- // simulate a stale cached child count
	v := s.CheckConsistency()
	if len(v) != 1 || !strings.Contains(v[0], "node /a: nkids 1, trie has 2 children") {
		t.Fatalf("corruption not reported: %v", v)
	}
	if s.clock.Now() != before {
		t.Fatal("CheckConsistency charged virtual time")
	}
	n.nkids++

	// A deeper node is named by its full path.
	s.Write("/a/b/c/d", "v")
	deep, _ := s.resolve("/a/b/c")
	deep.nkids += 2
	if v := s.CheckConsistency(); len(v) != 1 || v[0] != "node /a/b/c: nkids 3, trie has 1 children" {
		t.Fatalf("deep corruption reported as %v", v)
	}
	deep.nkids -= 2
}

// TestCheckConsistencyAllocFree audits a clean 1,000-guest store: no
// path is built for a node that passes, so the audit allocates nothing.
func TestCheckConsistencyAllocFree(t *testing.T) {
	s := guestStore()
	if allocs := testing.AllocsPerRun(5, func() {
		if v := s.CheckConsistency(); len(v) != 0 {
			t.Fatal(v)
		}
	}); allocs != 0 {
		t.Fatalf("clean audit allocates %.1f objects, want 0", allocs)
	}
}

func TestWatchTokensSortedAndClockFree(t *testing.T) {
	s, _ := newStore()
	s.Watch("/local/domain/2", "fe-2-vif-0", func(string, string) {})
	s.Watch("/local/domain/1", "fe-1-vif-0", func(string, string) {})
	before := s.clock.Now()
	got := s.WatchTokens()
	if s.clock.Now() != before {
		t.Fatal("WatchTokens charged virtual time")
	}
	if len(got) != 2 || got[0] != "fe-1-vif-0" || got[1] != "fe-2-vif-0" {
		t.Fatalf("WatchTokens = %v", got)
	}
}
