// Package idtable holds state keyed by dense, never-reused ids, such as
// the hypervisor's domain ids, ports and grant refs (DESIGN.md §17).
package idtable

import "math/bits"

// chunkBits sets the chunk size: 64 slots, one uint64 of liveness.
const chunkBits = 6

// chunk holds the values for 64 consecutive ids; bit i of live says
// whether slot i holds one.
type chunk[T any] struct {
	live  uint64
	slots [1 << chunkBits]T
}

// Table maps ids to values held inline in 64-slot chunks, so an entry
// costs no allocation of its own and Each walks in ascending id order.
// Put issues ids from a counter (0 for the zero Table, else From's
// first); Set stores under an id issued elsewhere and raises the
// counter past it. A chunk is freed when it is empty and the counter
// has passed it, so no later Put lands there; freeing it as soon as it
// empties would thrash when one entry lives and dies at the tail over
// and over. The Put that moves the counter past a chunk fills that
// chunk's last slot, and a Set that jumps past the tail frees it if
// empty, so the Del that empties a passed chunk frees it.
type Table[I ~int | ~uint32, T any] struct {
	chunks []*chunk[T] // chunks[c] holds ids [c<<chunkBits, (c+1)<<chunkBits); nil if none are live
	next   I           // one past the highest id issued or set
	n      int         // live entries
}

// From returns an empty table whose first Put issues first.
func From[I ~int | ~uint32, T any](first I) Table[I, T] {
	return Table[I, T]{next: first}
}

// Put stores v under the next id and returns that id.
func (t *Table[I, T]) Put(v T) I {
	id := t.next
	t.Set(id, v)
	return id
}

// Set stores v under id, replacing any live entry, and raises the
// counter to id+1 if it is below.
func (t *Table[I, T]) Set(id I, v T) {
	c, i := int(id>>chunkBits), id&(1<<chunkBits-1)
	for len(t.chunks) <= c {
		t.chunks = append(t.chunks, nil)
	}
	ch := t.chunks[c]
	if ch == nil {
		ch = new(chunk[T])
		t.chunks[c] = ch
	}
	if ch.live&(1<<i) == 0 {
		ch.live |= 1 << i
		t.n++
	}
	ch.slots[i] = v
	if id >= t.next {
		tail := int(t.next >> chunkBits)
		t.next = id + 1
		t.release(tail)
	}
}

// Get returns the live entry for id in place, or nil.
func (t *Table[I, T]) Get(id I) *T {
	c := int(id >> chunkBits)
	if c < 0 || c >= len(t.chunks) || t.chunks[c] == nil {
		return nil
	}
	ch, i := t.chunks[c], id&(1<<chunkBits-1)
	if ch.live&(1<<i) == 0 {
		return nil
	}
	return &ch.slots[i]
}

// Del removes id's entry and reports whether there was one.
func (t *Table[I, T]) Del(id I) bool {
	v := t.Get(id)
	if v == nil {
		return false
	}
	var zero T
	*v = zero
	c := int(id >> chunkBits)
	t.chunks[c].live &^= 1 << (id & (1<<chunkBits - 1))
	t.n--
	t.release(c)
	return true
}

// release frees chunk c if it is allocated, empty and passed.
func (t *Table[I, T]) release(c int) {
	if c < len(t.chunks) && t.chunks[c] != nil && t.chunks[c].live == 0 && I(c+1)<<chunkBits <= t.next {
		t.chunks[c] = nil
	}
}

// Each calls fn on every live entry in ascending id order. fn may
// delete entries: one deleted before its turn is skipped.
func (t *Table[I, T]) Each(fn func(id I, v *T)) {
	for c, ch := range t.chunks {
		if ch == nil {
			continue
		}
		for live := ch.live; live != 0; live &= live - 1 {
			i := bits.TrailingZeros64(live)
			if ch.live&(1<<i) != 0 {
				fn(I(c)<<chunkBits|I(i), &ch.slots[i])
			}
		}
	}
}

// Len reports the number of live entries.
func (t *Table[I, T]) Len() int { return t.n }

// Next is one past the highest id issued or set: every id the table
// ever held is below it.
func (t *Table[I, T]) Next() I { return t.next }
