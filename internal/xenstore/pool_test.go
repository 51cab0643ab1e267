package xenstore

import (
	"fmt"
	"testing"
)

// TestAMTBracketOf pins the bracket table: every slot count maps to the
// smallest bracket that holds it.
func TestAMTBracketOf(t *testing.T) {
	for n := 1; n <= amtWidth; n++ {
		b := amtBracketOf[n]
		if amtBrackets[b] < n || (b > 0 && amtBrackets[b-1] >= n) {
			t.Errorf("%d slots map to the %d-slot bracket", n, amtBrackets[b])
		}
	}
}

// TestPoolRecyclesWithinBracket: a retired trie level is handed only to
// a request in its own bracket, with its slot array intact, so a wide
// request never rebuilds a small level's array and a small request
// never keeps a wide one.
func TestPoolRecyclesWithinBracket(t *testing.T) {
	for b, size := range amtBrackets {
		p := newPool()
		p.enter()
		a := p.getAMT(size)
		p.retireAMT(a)
		p.exit()
		for n := 1; n <= amtWidth; n++ {
			if int(amtBracketOf[n]) != b && p.getAMT(n) == a {
				t.Errorf("a %d-slot level was handed to a %d-slot request", size, n)
			}
		}
		lo := 1
		if b > 0 {
			lo = amtBrackets[b-1] + 1
		}
		if got := p.getAMT(lo); got != a || len(got.slots) != lo || cap(got.slots) != size {
			t.Errorf("%d-slot request after a %d-slot retirement: got a fresh level %v, %d slots, capacity %d",
				lo, size, got != a, len(got.slots), cap(got.slots))
		}
	}
}

// TestPoolMixedBracketsAllocFree alternates an 8-slot and a 32-slot
// request with both levels retired in between: each is recycled in its
// own bracket, so a warm round allocates nothing.
func TestPoolMixedBracketsAllocFree(t *testing.T) {
	p := newPool()
	allocs := testing.AllocsPerRun(100, func() {
		p.enter()
		small, wide := p.getAMT(8), p.getAMT(32)
		p.retireAMT(small)
		p.retireAMT(wide)
		p.exit()
	})
	if allocs != 0 {
		t.Fatalf("recycling an 8-slot and a 32-slot level allocates %.1f objects per round, want 0", allocs)
	}
}

// TestOwnedInsertStaysInBracket: inside a commit's edit window an
// insert edits a level in place while its slot array has room, and
// copies a full level into the next bracket instead of regrowing its
// array.
func TestOwnedInsertStaysInBracket(t *testing.T) {
	p := newPool()
	p.beginEdit()
	defer p.endEdit()
	a := p.getAMT(3)
	a.bitmap = 0b111
	child := &node{name: "c"}
	if got := a.withInsert(p, 1<<3, child); got != a || len(a.slots) != 4 || cap(a.slots) != 4 {
		t.Fatalf("insert into an owned level with room: same level %v, %d slots, capacity %d, want in place, 4, 4",
			got == a, len(a.slots), cap(a.slots))
	}
	got := a.withInsert(p, 1<<4, child)
	if got == a {
		t.Fatal("insert into a full owned level edited it in place")
	}
	if len(got.slots) != 5 || cap(got.slots) != 8 || got.bitmap != 0b11111 || got.slots[4] != child {
		t.Fatalf("copy has %d slots, capacity %d, bitmap %b", len(got.slots), cap(got.slots), got.bitmap)
	}
	if len(a.slots) != 4 || cap(a.slots) != 4 {
		t.Fatalf("full level regrew to %d slots, capacity %d", len(a.slots), cap(a.slots))
	}
}

// bracketViolation walks n's subtree and describes the first pooled
// trie level whose slot array does not have its length's bracket
// capacity, or returns "". Pool-drawn levels hold that invariant for
// life: every copy is drawn at its exact size and in-place inserts stay
// within capacity. Decoded levels (ptag 0) are built by append and are
// not checked.
func bracketViolation(n *node) string {
	var level func(a *amtNode) string
	level = func(a *amtNode) string {
		if a == nil {
			return ""
		}
		if a.ptag != 0 {
			if l := len(a.slots); l == 0 || l > amtWidth || cap(a.slots) != amtBrackets[amtBracketOf[l]] {
				return fmt.Sprintf("a level under %q has %d slots and capacity %d", n.name, l, cap(a.slots))
			}
		}
		for _, s := range a.slots {
			switch e := s.(type) {
			case *node:
				if v := bracketViolation(e); v != "" {
					return v
				}
			case *amtNode:
				if v := level(e); v != "" {
					return v
				}
			}
		}
		return ""
	}
	return level(n.kids)
}

// TestCommitWideDirectoryKeepsBrackets commits 40 new children into one
// directory, growing its levels in place bracket by bracket, then
// removes them one by one: every level stays at its bracket's capacity
// and the directory lists what was written.
func TestCommitWideDirectoryKeepsBrackets(t *testing.T) {
	const dir, kids = "/local/domain/1/wide", 40
	s, _ := newStore()
	tx := s.TxnStart()
	for i := 0; i < kids; i++ {
		tx.Write(fmt.Sprintf("%s/k%d", dir, i), "1")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := bracketViolation(s.root); v != "" {
		t.Fatalf("after the commit: %s", v)
	}
	if n, err := s.DirectoryLen(dir); err != nil || n != kids {
		t.Fatalf("DirectoryLen = %d, %v, want %d", n, err, kids)
	}
	for i := 0; i < kids; i++ {
		if err := s.Rm(fmt.Sprintf("%s/k%d", dir, i)); err != nil {
			t.Fatal(err)
		}
		if v := bracketViolation(s.root); v != "" {
			t.Fatalf("after removing %d children: %s", i+1, v)
		}
	}
}
