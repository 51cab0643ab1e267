package idtable

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// id is the key type of the tables under test, unsigned like hv's
// ports and grant refs.
type id uint32

// liveChunks counts a table's allocated chunks.
func liveChunks[I ~int | ~uint32, T any](tb *Table[I, T]) int {
	n := 0
	for _, ch := range tb.chunks {
		if ch != nil {
			n++
		}
	}
	return n
}

// checkTable compares t with the model after an operation: the live
// count, every live value, each chunk's live bits (so Get finds no dead
// id), and the chunk bound — besides the chunks holding live ids, at
// most one more (the tail, which the counter has not yet passed) may
// be allocated.
func checkTable(t *testing.T, tb *Table[id, uint64], model map[id]uint64) {
	t.Helper()
	if tb.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d", tb.Len(), len(model))
	}
	want := map[int]uint64{}
	for k, v := range model {
		if k >= tb.Next() {
			t.Fatalf("live id %d at or past the counter %d", k, tb.Next())
		}
		if got := tb.Get(k); got == nil || *got != v {
			t.Fatalf("Get(%d) = %v, model has %d", k, got, v)
		}
		want[int(k>>chunkBits)] |= 1 << (k & (1<<chunkBits - 1))
	}
	for _, k := range []id{tb.Next(), tb.Next() + 1, 1 << 31} {
		if tb.Get(k) != nil {
			t.Fatalf("Get(%d) of an id never issued found an entry", k)
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
// maxTableIDs (16 chunks) a run of Put bursts or far Sets grows the
// table by up to 256 ids per operation and the replay slows
// quadratically with the input's length; maxTableOps caps that length.
const (
	maxTableIDs = 1024
	maxTableOps = 1024
)

// replayTable decodes data into table operations and checks each one
// against a map model. The first byte picks where ids start (0, as for
// domains, or 1, as for ports and grants); every following byte pair is
// one operation: kind, argument. Put issues ids monotonic and never
// reused, exactly as the hypervisor issues them; Set stores under ids
// chosen elsewhere, live, dead or past the counter, as the console
// does under domain ids. Neither goes past maxTableIDs ids: a later
// Put burst or far Set does nothing. Bytes past the first maxTableOps
// operations are ignored.
func replayTable(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	tb := From[id, uint64](id(data[0] % 2))
	end := tb.Next() + maxTableIDs
	model := map[id]uint64{}
	// pick maps an argument onto [0, next+1]: live, dead, never issued.
	pick := func(arg byte) id { return id(int(arg) * (int(tb.Next()) + 2) / 256) }
	var val uint64
	for i := 1; i+2 <= len(data) && i < 1+2*maxTableOps; i += 2 {
		kind, arg := data[i]%7, data[i+1]
		switch kind {
		case 0: // a burst of puts
			for k := 0; k <= int(arg) && tb.Next() < end; k++ {
				want := tb.Next()
				val++
				if got := tb.Put(val); got != want {
					t.Fatalf("Put issued %d, want %d", got, want)
				}
				model[want] = val
			}
		case 1:
			_ = tb.Get(pick(arg)) // checked for every id below
		case 2:
			k := pick(arg)
			_, ok := model[k]
			if tb.Del(k) != ok {
				t.Fatalf("Del(%d) = %v, model has it %v", k, !ok, ok)
			}
			delete(model, k)
		case 3: // drop the oldest arg+1 live ids, as FIFO churn does
			for n, k := 0, id(0); n <= int(arg) && k < tb.Next(); k++ {
				if _, ok := model[k]; ok {
					if !tb.Del(k) {
						t.Fatalf("Del(%d) of a live id failed", k)
					}
					delete(model, k)
					n++
				}
			}
		case 4: // each, deleting as it goes: the current id, and one ahead
			start := make(map[id]bool, len(model))
			for k := range model {
				start[k] = true
			}
			aheadGone := map[id]bool{}
			visited := map[id]bool{}
			last := id(0)
			first := true
			tb.Each(func(k id, v *uint64) {
				if !first && k <= last {
					t.Fatalf("Each visited %d after %d", k, last)
				}
				first, last = false, k
				if mv, ok := model[k]; !ok || *v != mv {
					t.Fatalf("Each visited %d = %d, model has %d (present %v)", k, *v, mv, ok)
				}
				visited[k] = true
				if (uint64(k)+uint64(arg))%3 == 0 {
					tb.Del(k)
					delete(model, k)
				}
				if ahead := k + id(arg%4) + 1; arg%2 == 1 && model[ahead] != 0 {
					tb.Del(ahead)
					delete(model, ahead)
					aheadGone[ahead] = true
				}
			})
			for k := range start {
				if !visited[k] && !aheadGone[k] {
					t.Fatalf("Each skipped live id %d", k)
				}
			}
		case 5: // set at an id out of order: live, dead or just past
			k := pick(arg)
			val++
			tb.Set(k, val)
			model[k] = val
		case 6: // set arg ids past the counter, jumping over the tail
			k := tb.Next() + id(arg)
			if k >= end {
				break
			}
			val++
			tb.Set(k, val)
			model[k] = val
			if tb.Next() != k+1 {
				t.Fatalf("Set(%d) left the counter at %d", k, tb.Next())
			}
		}
		checkTable(t, &tb, model)
	}
}

// FuzzTable replays random Put/Set/Get/Del/Each sequences against a
// map model (see replayTable).
func FuzzTable(f *testing.F) {
	f.Add([]byte{1, 0, 200, 3, 100, 4, 1, 0, 63, 2, 128, 4, 6})
	f.Add([]byte{0, 0, 63, 3, 62, 0, 0, 3, 0, 0, 127, 4, 3, 3, 255})
	f.Add([]byte{1, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 3, 0, 1, 0, 2, 255})
	f.Add([]byte{0, 0, 10, 6, 100, 2, 255, 5, 0, 3, 255, 6, 200, 5, 128, 2, 200, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) { replayTable(t, data) })
}

// maxPutBursts is the longest input a replay decodes, every operation
// a 256-id Put burst: the ids run out after four bursts, and every
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

// TestTableChurnStaysSmall: 100k create/destroy cycles of each way the
// simulator uses a table — domains beside a permanent entry 0 (Dom0),
// ports and grants issued from 1, and per-domain state Set under ids
// another table issued — keep each table at two chunks or fewer (the
// tail a freed chunk may not leave behind), and a cycle allocates
// almost nothing: a chunk is reused until the counter leaves it.
func TestTableChurnStaysSmall(t *testing.T) {
	const cycles = 100_000
	type state struct{ a, b uint64 }
	doms := From[id, *int](0)
	doms.Put(new(int)) // Dom0
	ports := From[id, state](1)
	consoles := From[id, state](1)
	var issued id
	cycle := map[string]func(){
		"domain": func() { doms.Del(doms.Put(nil)) },
		"port":   func() { ports.Del(ports.Put(state{1, 2})) },
		// A domain is made by one table and its per-domain state set
		// in another, so the ids the second sees skip some.
		"set": func() {
			issued += 3
			consoles.Set(issued, state{3, 4})
			consoles.Del(issued)
		},
	}
	for i := 0; i < cycles; i++ {
		for _, fn := range cycle {
			fn()
		}
	}
	for name, n := range map[string]int{
		"domain": liveChunks(&doms),
		"port":   liveChunks(&ports),
		"set":    liveChunks(&consoles),
	} {
		if n > 2 {
			t.Errorf("%s table holds %d chunks after %d cycles, want <= 2", name, n, cycles)
		}
	}
	if doms.Len() != 1 || ports.Len() != 0 || consoles.Len() != 0 {
		t.Fatalf("after churn: %d domains, %d ports, %d set entries", doms.Len(), ports.Len(), consoles.Len())
	}

	// AllocsPerRun truncates to whole allocations per run, so each run
	// is a batch of cycles and the pin is on the per-cycle average.
	const batch = 1000
	for name, fn := range cycle {
		perOp := testing.AllocsPerRun(20, func() {
			for i := 0; i < batch; i++ {
				fn()
			}
		}) / batch
		t.Logf("%s cycle: %.4f allocs/op", name, perOp)
		if perOp >= 0.1 {
			t.Errorf("%s cycle allocates %.4f objects per op, want < 0.1", name, perOp)
		}
	}
}

// TestTableIDsMatchCounters: a table issues the ids the hypervisor
// always has — from 0 for domains (Dom0 first), from 1 for ports and
// grant refs — and never reuses one, whatever was deleted in between;
// a Set past the counter moves it, a Set below does not.
func TestTableIDsMatchCounters(t *testing.T) {
	var doms Table[id, int]
	ports := From[id, int](1)
	var got []string
	for i := 0; i < 3; i++ {
		d, p := doms.Put(i), ports.Put(i)
		got = append(got, fmt.Sprintf("%d/%d", d, p))
		doms.Del(d)
		ports.Del(p)
	}
	ports.Set(10, 0)
	ports.Set(5, 0)
	got = append(got, fmt.Sprint(ports.Put(0)))
	want := []string{"0/1", "1/2", "2/3", "11"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ids issued %v, want %v", got, want)
	}
}
