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
