package hv

import "math/bits"

// chunkBits sets the table chunk size: 64 slots, one uint64 of liveness.
const chunkBits = 6

// chunk holds the values for 64 consecutive ids; bit i of live says
// whether slot i holds one.
type chunk[T any] struct {
	live  uint64
	slots [1 << chunkBits]T
}

// table maps the dense, monotonic, never-reused ids the hypervisor
// issues (domain ids, ports, grant refs) to values held inline in
// 64-slot chunks, so an entry costs no allocation of its own and
// iteration is in ascending id order without a sort (DESIGN.md §17).
//
// put issues the ids itself, one past the last, so they can never be
// reused. A chunk is freed when it is empty and next has moved past
// it: no later put can land there. Freeing a chunk as soon as it
// empties would thrash under per-request churn, where one port or
// grant lives and dies at the tail over and over. The put that moves
// next past a chunk fills that chunk's last slot, so no chunk is
// passed while empty: the del that empties it frees it, the tail's
// included.
type table[I ~int | ~uint32, T any] struct {
	chunks []*chunk[T] // chunks[c] holds ids [c<<chunkBits, (c+1)<<chunkBits); nil if none are live
	next   I           // the id the next put issues
	n      int         // live entries
}

// put stores v under the next id and returns that id.
func (t *table[I, T]) put(v T) I {
	id := t.next
	c, i := int(id>>chunkBits), id&(1<<chunkBits-1)
	for len(t.chunks) <= c {
		t.chunks = append(t.chunks, nil)
	}
	ch := t.chunks[c]
	if ch == nil {
		ch = new(chunk[T])
		t.chunks[c] = ch
	}
	ch.slots[i] = v
	ch.live |= 1 << i
	t.next++
	t.n++
	return id
}

// get returns the live entry for id in place, or nil.
func (t *table[I, T]) get(id I) *T {
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

// del removes id's entry and reports whether there was one.
func (t *table[I, T]) del(id I) bool {
	v := t.get(id)
	if v == nil {
		return false
	}
	var zero T
	*v = zero
	c := int(id >> chunkBits)
	ch := t.chunks[c]
	ch.live &^= 1 << (id & (1<<chunkBits - 1))
	t.n--
	if ch.live == 0 && I(c+1)<<chunkBits <= t.next {
		t.chunks[c] = nil
	}
	return true
}

// each calls fn on every live entry in ascending id order. fn may
// delete entries: one deleted before its turn is skipped.
func (t *table[I, T]) each(fn func(id I, v *T)) {
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
