// Package sim provides the virtual-time substrate for the LightVM
// simulation: a deterministic clock, a discrete-event queue, and a
// seeded random source.
//
// All components of the reproduction run against a *sim.Clock instead
// of wall time. Control-plane code executes for real (it manipulates
// real data structures) and charges its simulated cost by advancing
// the clock; concurrent activity (daemons, watch handlers, packet
// arrivals) is modelled as scheduled events on the same queue, so runs
// are bit-for-bit reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of
// the simulation. It intentionally mirrors time.Duration's resolution
// so cost constants can be written with time.Millisecond etc.
type Time int64

// Duration re-exports time.Duration; cost constants use it directly.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Milliseconds returns t expressed in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(time.Millisecond) }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// event is a queued callback. Fired events are returned to the clock's
// free list and reused, so steady-state scheduling does not grow the
// heap (fig10/fig16 push hundreds of thousands of events through one
// clock).
type event struct {
	at   Time
	seq  uint64 // tie-breaker for same-time events: FIFO order
	fn   func()
	next *event // free-list link (valid only while pooled)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Clock is the simulation's notion of time plus its event queue.
// The zero value is not usable; call NewClock.
type Clock struct {
	now   Time
	queue eventHeap
	seq   uint64
	free  *event // recycled events (see event)
}

// newEvent takes an event from the free list, or allocates one.
func (c *Clock) newEvent(at Time, fn func()) *event {
	e := c.free
	if e == nil {
		e = &event{}
	} else {
		c.free = e.next
	}
	c.seq++
	e.at, e.seq, e.fn, e.next = at, c.seq, fn, nil
	return e
}

// release returns a fired event to the free list. The callback is
// cleared so pooled events do not retain closures.
func (c *Clock) release(e *event) {
	e.fn = nil
	e.next = c.free
	c.free = e
}

// NewClock returns a clock positioned at t=0 with an empty queue.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Sleep advances virtual time by d, firing any events that become due.
// It is the primary way synchronous code charges simulated cost.
// Negative durations are ignored.
func (c *Clock) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	c.AdvanceTo(c.now.Add(d))
}

// AdvanceTo moves the clock forward to t (no-op if t is in the past),
// running every scheduled event whose deadline is ≤ t in timestamp
// order. Events may schedule further events; those are honoured if
// they also fall before t.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		return
	}
	for len(c.queue) > 0 && c.queue[0].at <= t {
		e := heap.Pop(&c.queue).(*event)
		if e.at > c.now {
			c.now = e.at
		}
		e.fn()
		c.release(e)
	}
	if t > c.now {
		c.now = t
	}
}

// Schedule queues fn to run at absolute time at. Scheduling in the
// past runs the event at the current time on the next advance.
func (c *Clock) Schedule(at Time, fn func()) {
	if at < c.now {
		at = c.now
	}
	heap.Push(&c.queue, c.newEvent(at, fn))
}

// After queues fn to run d from now.
func (c *Clock) After(d Duration, fn func()) {
	c.Schedule(c.now.Add(d), fn)
}

// Drain runs queued events until the queue is empty or limit events
// have fired, advancing time as it goes. It returns the number of
// events run. A limit of 0 means no limit.
func (c *Clock) Drain(limit int) int {
	n := 0
	for len(c.queue) > 0 {
		if limit > 0 && n >= limit {
			break
		}
		e := heap.Pop(&c.queue).(*event)
		if e.at > c.now {
			c.now = e.at
		}
		e.fn()
		c.release(e)
		n++
	}
	return n
}

// RunBefore fires every queued event with deadline strictly before w,
// in timestamp order, advancing the clock to each event's time. The
// clock is NOT advanced to w afterwards: it rests at the last fired
// event (or wherever a handler's Sleep left it), so the next window
// can start from the true local frontier. Events a handler schedules
// inside the window are honoured if they also fall before w. It
// returns the number of events fired.
//
// This is the sharded engine's per-window executor (see engine.go): w
// is the shard's conservative horizon, below which no cross-shard
// message can still arrive.
func (c *Clock) RunBefore(w Time) int {
	n := 0
	for len(c.queue) > 0 && c.queue[0].at < w {
		e := heap.Pop(&c.queue).(*event)
		if e.at > c.now {
			c.now = e.at
		}
		e.fn()
		c.release(e)
		n++
	}
	return n
}

// Pending reports the number of queued events.
func (c *Clock) Pending() int { return len(c.queue) }

// NextDeadline returns the time of the earliest queued event and
// whether one exists.
func (c *Clock) NextDeadline() (Time, bool) {
	if len(c.queue) == 0 {
		return 0, false
	}
	return c.queue[0].at, true
}

// Quiet reports whether no queued event falls at or before t: an
// advance to t would fire nothing, so a run of charges ending by t may
// be made as one Sleep and end where the separate sleeps would.
func (c *Clock) Quiet(t Time) bool {
	return len(c.queue) == 0 || c.queue[0].at > t
}

// RNG is a small deterministic PRNG (xorshift64*), used wherever the
// simulation needs jitter (e.g. fork/exec tail latency). We avoid
// math/rand so that the dependency surface stays obvious and seeding
// is explicit at every construction site.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("sim: Intn with non-positive n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed duration with the given
// mean. Used for open-loop arrival processes.
func (r *RNG) Exp(mean Duration) Duration {
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return Duration(-math.Log(u) * float64(mean))
}

// Pareto returns a bounded Pareto-ish heavy-tail sample: min scaled by
// (1/u)^(1/alpha), capped at max. Used for latency tails.
func (r *RNG) Pareto(min, max Duration, alpha float64) Duration {
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	v := Duration(float64(min) * math.Pow(1/u, 1/alpha))
	if v > max {
		v = max
	}
	return v
}
