package hv

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// checkTable compares t with the model after an operation: the live
// count, every live value, each chunk's live bits (so get finds no dead
// id), and the chunk bound — besides the chunks holding live ids, at
// most one more (the tail, which the counter has not yet passed) may
// be allocated.
func checkTable(t *testing.T, tb *table[Port, uint64], model map[Port]uint64) {
	t.Helper()
	if tb.n != len(model) {
		t.Fatalf("n = %d, model holds %d", tb.n, len(model))
	}
	want := map[int]uint64{}
	for id, v := range model {
		if got := tb.get(id); got == nil || *got != v {
			t.Fatalf("get(%d) = %v, model has %d", id, got, v)
		}
		want[int(id>>chunkBits)] |= 1 << (id & (1<<chunkBits - 1))
	}
	for _, id := range []Port{tb.next, tb.next + 1, 1 << 31} {
		if tb.get(id) != nil {
			t.Fatalf("get(%d) of an id never issued found an entry", id)
		}
	}
	allocated, holding := 0, 0
	for c, ch := range tb.chunks {
		var live uint64
		if ch != nil {
			allocated++
			live = ch.live
		}
		if live != want[c] {
			t.Fatalf("chunk %d live bits %#x, model %#x", c, live, want[c])
		}
		if live != 0 {
			holding++
		}
		delete(want, c)
	}
	if len(want) != 0 {
		t.Fatalf("model ids in chunks %v past the table's end", want)
	}
	if allocated > holding+1 {
		t.Fatalf("%d chunks allocated, %d hold live ids", allocated, holding)
	}
}

// Bounds on one replay, so every fuzz input finishes in bounded time.
// The checks after each operation are linear in the ids issued: without
// maxTableIDs (16 chunks) a run of put bursts grows the table by up to
// 256 ids per operation and the replay slows quadratically with the
// input's length; maxTableOps caps that length.
const (
	maxTableIDs = 1024
	maxTableOps = 1024
)

// replayTable decodes data into table operations and checks each one
// against a map model. The first byte picks where ids start (0, as for
// domains, or 1, as for ports and grants); every following byte pair is
// one operation: kind, argument. Ids are issued by put, monotonic and
// never reused, exactly as the hypervisor issues them, until
// maxTableIDs have been issued; later put bursts issue nothing. Bytes
// past the first maxTableOps operations are ignored.
func replayTable(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	tb := &table[Port, uint64]{next: Port(data[0] % 2)}
	end := tb.next + maxTableIDs
	model := map[Port]uint64{}
	// pick maps an argument onto [0, next+1]: live, dead, never issued.
	pick := func(arg byte) Port { return Port(int(arg) * (int(tb.next) + 2) / 256) }
	var val uint64
	for i := 1; i+2 <= len(data) && i < 1+2*maxTableOps; i += 2 {
		kind, arg := data[i]%5, data[i+1]
		switch kind {
		case 0: // a burst of puts
			for k := 0; k <= int(arg) && tb.next < end; k++ {
				want := tb.next
				val++
				if id := tb.put(val); id != want {
					t.Fatalf("put issued %d, want %d", id, want)
				}
				model[want] = val
			}
		case 1:
			_ = tb.get(pick(arg)) // checked for every id below
		case 2:
			id := pick(arg)
			_, ok := model[id]
			if tb.del(id) != ok {
				t.Fatalf("del(%d) = %v, model has it %v", id, !ok, ok)
			}
			delete(model, id)
		case 3: // drop the oldest arg+1 live ids, as FIFO churn does
			for k, id := 0, Port(0); k <= int(arg) && id < tb.next; id++ {
				if _, ok := model[id]; ok {
					if !tb.del(id) {
						t.Fatalf("del(%d) of a live id failed", id)
					}
					delete(model, id)
					k++
				}
			}
		case 4: // each, deleting as it goes: the current id, and one ahead
			start := make(map[Port]bool, len(model))
			for id := range model {
				start[id] = true
			}
			aheadGone := map[Port]bool{}
			visited := map[Port]bool{}
			last := Port(0)
			first := true
			tb.each(func(id Port, v *uint64) {
				if !first && id <= last {
					t.Fatalf("each visited %d after %d", id, last)
				}
				first, last = false, id
				if mv, ok := model[id]; !ok || *v != mv {
					t.Fatalf("each visited %d = %d, model has %d (present %v)", id, *v, mv, ok)
				}
				visited[id] = true
				if (uint64(id)+uint64(arg))%3 == 0 {
					tb.del(id)
					delete(model, id)
				}
				if ahead := id + Port(arg%4) + 1; arg%2 == 1 && model[ahead] != 0 {
					tb.del(ahead)
					delete(model, ahead)
					aheadGone[ahead] = true
				}
			})
			for id := range start {
				if !visited[id] && !aheadGone[id] {
					t.Fatalf("each skipped live id %d", id)
				}
			}
		}
		checkTable(t, tb, model)
	}
}

// FuzzTable replays random put/get/del/each sequences against a map
// model (see replayTable).
func FuzzTable(f *testing.F) {
	f.Add([]byte{1, 0, 200, 3, 100, 4, 1, 0, 63, 2, 128, 4, 6})
	f.Add([]byte{0, 0, 63, 3, 62, 0, 0, 3, 0, 0, 127, 4, 3, 3, 255})
	f.Add([]byte{1, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 3, 0, 1, 0, 2, 255})
	f.Fuzz(func(t *testing.T, data []byte) { replayTable(t, data) })
}

// maxPutBursts is the longest input a replay decodes, every operation
// a 256-id put burst: the ids run out after four bursts, and every
// later operation checks a full table.
func maxPutBursts() []byte {
	data := []byte{1}
	for i := 0; i < maxTableOps; i++ {
		data = append(data, 0, 255)
	}
	return data
}

// TestTableMaxInputBounded replays maxPutBursts, which is checked in
// as a FuzzTable seed, and bounds its time.
func TestTableMaxInputBounded(t *testing.T) {
	data := maxPutBursts()
	seed, err := os.ReadFile("testdata/fuzz/FuzzTable/max-put-bursts")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data); string(seed) != want {
		t.Fatal("testdata/fuzz/FuzzTable/max-put-bursts does not hold maxPutBursts()")
	}
	start := time.Now()
	replayTable(t, data)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("replaying %d bytes took %v, budget 1s", len(data), d)
	}
}
