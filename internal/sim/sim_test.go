package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestSleepAdvances(t *testing.T) {
	c := NewClock()
	c.Sleep(5 * time.Millisecond)
	if got := c.Now(); got != Time(5*time.Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", got)
	}
	c.Sleep(0)
	c.Sleep(-time.Second)
	if got := c.Now(); got != Time(5*time.Millisecond) {
		t.Fatalf("non-positive sleep moved clock to %v", got)
	}
}

func TestScheduleFiresInOrder(t *testing.T) {
	c := NewClock()
	var got []int
	c.After(3*time.Millisecond, func() { got = append(got, 3) })
	c.After(1*time.Millisecond, func() { got = append(got, 1) })
	c.After(2*time.Millisecond, func() { got = append(got, 2) })
	c.Sleep(10 * time.Millisecond)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired as %v, want [1 2 3]", got)
	}
}

func TestSameDeadlineFIFO(t *testing.T) {
	c := NewClock()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		c.Schedule(Time(time.Millisecond), func() { got = append(got, i) })
	}
	c.Sleep(2 * time.Millisecond)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestEventsSeeCurrentTime(t *testing.T) {
	c := NewClock()
	var at Time
	c.After(7*time.Millisecond, func() { at = c.Now() })
	c.Sleep(20 * time.Millisecond)
	if at != Time(7*time.Millisecond) {
		t.Fatalf("event observed Now()=%v, want 7ms", at)
	}
	if c.Now() != Time(20*time.Millisecond) {
		t.Fatalf("clock ended at %v, want 20ms", c.Now())
	}
}

func TestEventChaining(t *testing.T) {
	c := NewClock()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 4 {
			c.After(time.Millisecond, tick)
		}
	}
	c.After(time.Millisecond, tick)
	c.Sleep(10 * time.Millisecond)
	if count != 4 {
		t.Fatalf("chained events ran %d times, want 4", count)
	}
}

func TestChainedEventBeyondHorizonDeferred(t *testing.T) {
	c := NewClock()
	fired := false
	c.After(time.Millisecond, func() {
		c.After(10*time.Millisecond, func() { fired = true })
	})
	c.Sleep(2 * time.Millisecond)
	if fired {
		t.Fatal("event beyond the advance horizon fired early")
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", c.Pending())
	}
	c.Sleep(20 * time.Millisecond)
	if !fired {
		t.Fatal("deferred event never fired")
	}
}

func TestSchedulePastClamps(t *testing.T) {
	c := NewClock()
	c.Sleep(time.Second)
	fired := false
	c.Schedule(0, func() { fired = true })
	c.Sleep(time.Nanosecond)
	if !fired {
		t.Fatal("past-scheduled event did not fire on next advance")
	}
}

func TestDrain(t *testing.T) {
	c := NewClock()
	n := 0
	for i := 0; i < 10; i++ {
		c.After(time.Duration(i+1)*time.Millisecond, func() { n++ })
	}
	if ran := c.Drain(4); ran != 4 || n != 4 {
		t.Fatalf("Drain(4) ran %d events (n=%d), want 4", ran, n)
	}
	if ran := c.Drain(0); ran != 6 || n != 10 {
		t.Fatalf("Drain(0) ran %d events (n=%d), want 6 (n=10)", ran, n)
	}
	if c.Now() != Time(10*time.Millisecond) {
		t.Fatalf("clock at %v after drain, want 10ms", c.Now())
	}
}

func TestNextDeadline(t *testing.T) {
	c := NewClock()
	if _, ok := c.NextDeadline(); ok {
		t.Fatal("empty queue reported a deadline")
	}
	c.After(4*time.Millisecond, func() {})
	c.After(2*time.Millisecond, func() {})
	dl, ok := c.NextDeadline()
	if !ok || dl != Time(2*time.Millisecond) {
		t.Fatalf("NextDeadline = %v,%v, want 2ms,true", dl, ok)
	}
}

// TestQuiet pins the quiet-window rule batched charges rely on: an
// event due exactly at t is not quiet, one after t is.
func TestQuiet(t *testing.T) {
	c := NewClock()
	at := Time(3 * time.Millisecond)
	if !c.Quiet(at) {
		t.Fatal("empty queue is not quiet")
	}
	c.Schedule(at, func() {})
	if c.Quiet(at) {
		t.Fatal("event exactly at t reported quiet")
	}
	if c.Quiet(at + 1) {
		t.Fatal("event before t reported quiet")
	}
	if !c.Quiet(at - 1) {
		t.Fatal("event after t reported not quiet")
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(time.Second)
	b := a.Add(500 * time.Millisecond)
	if b.Sub(a) != 500*time.Millisecond {
		t.Fatalf("Sub = %v", b.Sub(a))
	}
	if b.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", b.Seconds())
	}
	if b.Milliseconds() != 1500 {
		t.Fatalf("Milliseconds = %v", b.Milliseconds())
	}
	if a.String() != "1s" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded RNGs diverged")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(9)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(10 * time.Millisecond)
	}
	mean := sum / n
	if mean < 9*time.Millisecond || mean > 11*time.Millisecond {
		t.Fatalf("Exp mean = %v, want ≈10ms", mean)
	}
}

func TestRNGParetoBounds(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(time.Millisecond, 10*time.Millisecond, 2)
		if v < time.Millisecond || v > 10*time.Millisecond {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

// Property: advancing in k small steps reaches the same time as one
// large step, and fires the same number of events.
func TestAdvanceSplitEquivalence(t *testing.T) {
	f := func(steps []uint8) bool {
		c1, c2 := NewClock(), NewClock()
		fired1, fired2 := 0, 0
		var total time.Duration
		for _, s := range steps {
			total += time.Duration(s) * time.Millisecond
		}
		for i := time.Duration(1); i <= 50; i++ {
			c1.After(i*10*time.Millisecond, func() { fired1++ })
			c2.After(i*10*time.Millisecond, func() { fired2++ })
		}
		for _, s := range steps {
			c1.Sleep(time.Duration(s) * time.Millisecond)
		}
		c2.Sleep(total)
		return c1.Now() == c2.Now() && fired1 == fired2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Time.Add/Sub round-trips.
func TestTimeAddSubRoundTrip(t *testing.T) {
	f := func(base int64, d int32) bool {
		tm := Time(base)
		return tm.Add(time.Duration(d)).Sub(tm) == time.Duration(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEventPoolRecycles: after warmup, a schedule/drain cycle reuses
// pooled event structs instead of allocating fresh ones — the clock is
// on every simulated operation's path, so this must stay allocation
// free.
func TestEventPoolRecycles(t *testing.T) {
	c := NewClock()
	fn := func() {}
	// Warm the free list.
	for i := 0; i < 8; i++ {
		c.Schedule(c.Now().Add(time.Duration(i)), fn)
	}
	c.Drain(0)
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			c.Schedule(c.Now().Add(time.Duration(i)), fn)
		}
		c.Drain(0)
	})
	if avg > 0 {
		t.Fatalf("schedule/drain cycle allocates %.1f/run, want 0", avg)
	}
}

// TestEventPoolPreservesSemantics: recycled events must not leak stale
// callbacks or deadlines.
func TestEventPoolPreservesSemantics(t *testing.T) {
	c := NewClock()
	var order []int
	c.Schedule(c.Now().Add(2*time.Millisecond), func() { order = append(order, 2) })
	c.Schedule(c.Now().Add(1*time.Millisecond), func() { order = append(order, 1) })
	c.Drain(0)
	// Reuse the two pooled events with new deadlines and callbacks.
	c.Schedule(c.Now().Add(1*time.Millisecond), func() { order = append(order, 3) })
	c.Schedule(c.Now().Add(2*time.Millisecond), func() { order = append(order, 4) })
	c.Drain(0)
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
