package xenstore

import (
	"bytes"
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

// TestOwnedInsertStaysInBracket: a current level (drawn since the last
// snapshot) is edited in place by an insert while its slot array has
// room and by a removal while its remaining slots stay in its bracket.
// A full level is copied into the next bracket instead of regrowing
// its array, a removal that leaves the bracket copies into the smaller
// one, and after a snapshot the same level is copied even with room.
func TestOwnedInsertStaysInBracket(t *testing.T) {
	p := newPool()
	a := p.getAMT(3)
	a.bitmap = 0b111
	child := &node{name: "c"}
	if got := a.withInsert(p, 1<<3, child); got != a || len(a.slots) != 4 || cap(a.slots) != 4 {
		t.Fatalf("insert into a current level with room: same level %v, %d slots, capacity %d, want in place, 4, 4",
			got == a, len(a.slots), cap(a.slots))
	}
	got := a.withInsert(p, 1<<4, child)
	if got == a {
		t.Fatal("insert into a full current level edited it in place")
	}
	if len(got.slots) != 5 || cap(got.slots) != 8 || got.bitmap != 0b11111 || got.slots[4] != child {
		t.Fatalf("copy has %d slots, capacity %d, bitmap %b", len(got.slots), cap(got.slots), got.bitmap)
	}
	if len(a.slots) != 4 || cap(a.slots) != 4 {
		t.Fatalf("full level regrew to %d slots, capacity %d", len(a.slots), cap(a.slots))
	}
	if r := got.withInsert(p, 1<<5, child); r != got || len(r.slots) != 6 {
		t.Fatalf("insert into the current copy: same level %v, %d slots", r == got, len(r.slots))
	}
	if r := got.withRemove(p, 1<<5); r != got || len(r.slots) != 5 || cap(r.slots) != 8 || r.bitmap != 0b11111 {
		t.Fatalf("removal staying in the 8-slot bracket: same level %v, %d slots, capacity %d",
			r == got, len(r.slots), cap(r.slots))
	}
	if r := got.withRemove(p, 1<<4); r == got || len(r.slots) != 4 || cap(r.slots) != 4 || r.bitmap != 0b1111 {
		t.Fatalf("removal leaving the 8-slot bracket: same level %v, %d slots, capacity %d",
			r == got, len(r.slots), cap(r.slots))
	}
	b := p.getAMT(1)
	b.bitmap = 1
	p.epoch++ // a snapshot: b may now be reachable from it
	if got := b.withInsert(p, 1<<1, child); got == b || b.bitmap != 1 || len(b.slots) != 1 {
		t.Fatal("insert after a snapshot edited the level in place")
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

// spineObjects returns the objects a mutation of path passes through:
// each node from the root down and, between a node and its child, the
// trie levels that lead to the child.
func spineObjects(s *Store, path string) []any {
	n := s.root
	out := []any{n}
	for it := hashSegments(path); ; {
		seg, h, ok := it.next()
		if !ok || n == nil {
			return out
		}
		for a, shift := n.kids, uint(0); a != nil; shift += amtBits {
			out = append(out, a)
			bit := uint32(1) << ((h >> shift) & amtMask)
			if a.bitmap&bit == 0 {
				break
			}
			sub, ok := a.slots[a.slotIndex(bit)].(*amtNode)
			if !ok {
				break
			}
			a = sub
		}
		n = n.childByID(h, seg)
		out = append(out, n)
	}
}

// sameObjects reports the index of the first object that differs
// between two spines, or -1.
func sameObjects(a, b []any) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return len(a)
	}
	return -1
}

// deviceWrites are the 13 (path, value) writes of a vif device commit
// for guest dom: xenbus.WriteDeviceEntries plus the frontend's event
// channel.
func deviceWrites(dom, mac string) [][2]string {
	fe := "/local/domain/" + dom + "/device/vif/0"
	be := "/local/domain/0/backend/vif/" + dom + "/0"
	return [][2]string{
		{fe + "/backend", be}, {fe + "/backend-id", "0"}, {fe + "/handle", "0"},
		{fe + "/mac", mac}, {be + "/mac", mac}, {be + "/bridge", "xenbr0"},
		{fe + "/state", "1"}, {be + "/frontend", fe}, {be + "/frontend-id", dom},
		{be + "/handle", "0"}, {be + "/online", "1"}, {be + "/state", "1"},
		{fe + "/event-channel", "17"},
	}
}

// TestMutationsWithoutSnapshotCopyNothing: on a 1,000-guest store no
// snapshot was ever taken of, every object is current, so overwriting
// a leaf, removing and re-creating one, and a 13-write device commit
// edit the tree in place. No spine object is replaced, nothing but the
// removed leaf retires, and an overwrite allocates nothing.
func TestMutationsWithoutSnapshotCopyNothing(t *testing.T) {
	s := guestStore()
	requirePendEmpty := func(what string) {
		t.Helper()
		if len(s.pl.pendN) != 0 || len(s.pl.pendA) != 0 {
			t.Fatalf("%s retired %d nodes and %d trie levels, want none", what, len(s.pl.pendN), len(s.pl.pendA))
		}
	}

	const leaf = "/local/domain/500/device/vif/0/state"
	before := spineObjects(s, leaf)
	s.pl.enter() // hold retirements in the pending lists
	s.Write(leaf, "5")
	if i := sameObjects(before, spineObjects(s, leaf)); i >= 0 {
		t.Fatalf("overwrite replaced spine object %d", i)
	}
	requirePendEmpty("overwrite")
	s.pl.exit()
	if allocs := testing.AllocsPerRun(100, func() { s.Write(leaf, "6") }); allocs != 0 {
		t.Fatalf("overwrite allocates %.1f objects, want 0", allocs)
	}

	const name = "/local/domain/500/name"
	before = spineObjects(s, name)
	removed, _ := s.resolve(name)
	s.pl.enter()
	if err := s.Rm(name); err != nil {
		t.Fatal(err)
	}
	if len(s.pl.pendN) != 1 || s.pl.pendN[0] != removed || len(s.pl.pendA) != 0 {
		t.Fatalf("Rm retired %d nodes and %d trie levels, want the removed leaf alone", len(s.pl.pendN), len(s.pl.pendA))
	}
	s.pl.exit()
	s.Write(name, "g500") // draws the recycled leaf back
	if i := sameObjects(before, spineObjects(s, name)); i >= 0 {
		t.Fatalf("Rm and re-create replaced spine object %d", i)
	}

	writes := deviceWrites("500", "00:16:3e:00:00:01")
	commit := func() {
		tx := s.TxnStart()
		for _, w := range writes {
			tx.Write(w[0], w[1])
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit() // creates the backend entries
	spines := make([][]any, len(writes))
	for i, w := range writes {
		spines[i] = spineObjects(s, w[0])
	}
	s.pl.enter()
	commit()
	for i, w := range writes {
		if j := sameObjects(spines[i], spineObjects(s, w[0])); j >= 0 {
			t.Fatalf("device commit replaced object %d on the spine of %s", j, w[0])
		}
	}
	requirePendEmpty("device commit")
	s.pl.exit()
}

// TestSnapshotThenWritesCopySpineOnce: a snapshot makes every object
// old. The first write after it copies each object on its spine once,
// the second edits those copies in place, and the snapshot still
// serializes to the bytes it had when taken.
func TestSnapshotThenWritesCopySpineOnce(t *testing.T) {
	const leaf = "/local/domain/500/device/vif/0/state"
	s := guestStore()
	sn := s.Snapshot()
	blob := sn.Serialize()
	before := spineObjects(s, leaf)
	s.Write(leaf, "5")
	first := spineObjects(s, leaf)
	if len(first) != len(before) {
		t.Fatalf("spine has %d objects after the write, %d before", len(first), len(before))
	}
	for i := range first {
		if first[i] == before[i] {
			t.Fatalf("first write after the snapshot kept spine object %d of %d", i, len(first))
		}
	}
	s.Write(leaf, "6")
	if i := sameObjects(first, spineObjects(s, leaf)); i >= 0 {
		t.Fatalf("second write replaced spine object %d", i)
	}
	if !bytes.Equal(sn.Serialize(), blob) {
		t.Fatal("writes after the snapshot changed its bytes")
	}
	if v, _ := snapRead(sn, leaf); v != "4" {
		t.Fatalf("snapshot reads %q, want 4", v)
	}
}
