// Parallel discrete-event core: logical processes and conservative
// synchronization.
//
// An Engine partitions a simulation into Shards (logical processes in
// PDES terms). Each shard owns a private Clock — its event queue and
// local virtual time — and shards interact only through timestamped
// messages (Shard.Send) that arrive at least one lookahead interval in
// the receiver's future. That minimum delay is what makes conservative
// parallel execution possible: if every in-flight message is at least
// `lookahead` ahead of its sender's clock, every shard can safely
// execute every local event below
//
//	LBTS = min over all shards ( next deadline ) + lookahead
//
// because any message produced inside the window is stamped at or
// beyond that bound, as is every transitive consequence of delivering
// it (the lower-bound-timestamp reasoning of Chandy/Misra/Bryant,
// computed centrally per window rather than with null messages).
//
// The engine runs in synchronized windows: compute every shard's
// horizon, execute all shards with due events in parallel on a worker
// pool, barrier, then deliver the accumulated cross-shard messages in
// a canonical order (timestamp, sender, send-sequence). Workers only
// parallelize *within* a window and shards share no state, so the
// event schedule — and therefore every simulation result — is
// byte-identical for any worker count, including 1. Determinism is the
// contract the experiment harness builds on: the same seed must
// produce the same tables at every shard count.
//
// Handlers are ordinary synchronous simulation code and may advance
// their local clock arbitrarily far (a migration restore sleeps tens
// of virtual milliseconds). A message that arrives below the
// receiver's clock — the receiver slept ahead inside a window — is
// delivered at the receiver's current time, exactly as Clock.Schedule
// has always treated past deadlines. This models a node that was busy
// in a blocking operation when the request came in: the work queues
// and runs when the node yields. Handlers that only schedule (never
// sleep across a lookahead) get strict global timestamp order, which
// the model-checking harness in engine_model_test.go verifies against
// a single-queue reference executor.
package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// maxTime is the +infinity sentinel for horizon computation.
const maxTime = Time(math.MaxInt64)

// xevent is one cross-shard message: a callback bound for dst's
// timeline. src and seq break timestamp ties canonically, so delivery
// order never depends on worker interleaving.
type xevent struct {
	at       Time
	src, dst int32
	seq      uint64
	fn       func()
}

// Shard is one logical process: a private clock plus an outbox of
// cross-shard messages. All access to a shard's clock and state must
// happen from its own event handlers (or before Run starts); the
// engine guarantees a shard is executed by at most one worker at a
// time, with a barrier between windows.
type Shard struct {
	id    int
	clock *Clock
	eng   *Engine

	outbox  []xevent
	sendSeq uint64

	// windowEnd is this window's conservative horizon, set by the
	// coordinator before workers start and read-only during execution.
	windowEnd Time
	// fired accumulates events executed across windows; prevFired is
	// its value when the current window started (workers write both,
	// the coordinator reads them after the barrier for stats).
	fired     uint64
	prevFired uint64
}

// ID returns the shard's index in the engine.
func (s *Shard) ID() int { return s.id }

// Clock returns the shard's private timeline.
func (s *Shard) Clock() *Clock { return s.clock }

// Send schedules fn on shard dst at now+delay. Delays below the
// engine's lookahead are raised to it — the minimum message latency is
// the engine's causality floor, not a tunable per call. Sending to the
// shard itself is allowed and equivalent to a local After with the
// same floor. The message is buffered and delivered at the end of the
// current window.
func (s *Shard) Send(dst int, delay Duration, fn func()) {
	if delay < s.eng.lookahead {
		delay = s.eng.lookahead
	}
	s.sendSeq++
	s.outbox = append(s.outbox, xevent{
		at:  s.clock.Now().Add(delay),
		src: int32(s.id), dst: int32(dst),
		seq: s.sendSeq,
		fn:  fn,
	})
}

// EngineStats summarizes one Run: all three counters are functions of
// the event schedule alone, so they are deterministic and safe to
// print in golden tables.
type EngineStats struct {
	// Windows is the number of synchronization rounds executed.
	Windows uint64
	// Events is the total number of local events fired across shards.
	Events uint64
	// Messages is the number of cross-shard messages delivered.
	Messages uint64
}

// Engine coordinates a set of shards through conservative windows.
type Engine struct {
	shards    []*Shard
	lookahead Duration
	workers   int
	stats     EngineStats

	// Per-window scratch, reused so the steady-state loop does not
	// allocate. flushTmp is sortFlush's merge buffer.
	ready    []*Shard
	flush    []xevent
	flushTmp []xevent

	// Worker-pool plumbing (workers > 1 only): wake releases one token
	// per worker per window, done collects them. cursor indexes into
	// ready.
	wake   chan struct{}
	done   chan struct{}
	cursor atomic.Int64
	wg     sync.WaitGroup
}

// NewEngine builds an engine with n shards (all clocks at t=0) and the
// given lookahead — the minimum cross-shard message latency, which
// must be positive. workers bounds the goroutines that execute shards
// within a window: 1 means fully inline single-threaded execution;
// results are identical either way.
func NewEngine(n, workers int, lookahead Duration) *Engine {
	if n <= 0 {
		panic("sim: engine needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: engine lookahead must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	e := &Engine{lookahead: lookahead, workers: workers}
	e.shards = make([]*Shard, n)
	for i := range e.shards {
		e.shards[i] = &Shard{id: i, clock: NewClock(), eng: e}
	}
	return e
}

// Shard returns shard i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// MaxTime returns the most advanced shard clock — the simulation's
// makespan once Run has returned.
func (e *Engine) MaxTime() Time {
	var max Time
	for _, s := range e.shards {
		if t := s.clock.Now(); t > max {
			max = t
		}
	}
	return max
}

// Run executes windows until every shard's queue is empty and no
// message is in flight, then returns the run's statistics. It may be
// called again after scheduling more events (stats accumulate).
func (e *Engine) Run() EngineStats {
	if e.workers > 1 && e.wake == nil {
		e.startWorkers()
		defer e.stopWorkers()
	}
	for {
		if !e.window() {
			break
		}
	}
	return e.stats
}

// window runs one synchronization round; false means quiescent.
//
// The horizon is the same for every shard: the globally earliest
// pending event plus one lookahead. That bound is closed under chained
// interaction — any message generated inside the window is stamped at
// least lookahead after its sender's current event, hence at or beyond
// the horizon, hence delivered (at the window barrier) into the NEXT
// window, as are all its transitive consequences. A per-shard bound
// built from other shards' current deadlines (min-over-others) is NOT
// sound here: it ignores that a shard's next deadline can drop when
// this window's messages are delivered, and the follow-on replies can
// then land inside the wider horizon the optimization granted.
func (e *Engine) window() bool {
	min1 := maxTime
	for _, s := range e.shards {
		if d, ok := s.clock.NextDeadline(); ok && d < min1 {
			min1 = d
		}
	}
	if min1 == maxTime {
		// No shard has events. Outboxes are normally empty here (Send
		// runs inside handlers, which imply a due event), but setup
		// code calling Send outside a window gets its messages flushed
		// rather than lost.
		for _, s := range e.shards {
			if len(s.outbox) > 0 {
				e.ready = append(e.ready[:0], e.shards...)
				e.deliver()
				return true
			}
		}
		return false
	}
	horizon := min1 + Time(e.lookahead)
	e.ready = e.ready[:0]
	for _, s := range e.shards {
		d, ok := s.clock.NextDeadline()
		if ok && d < horizon {
			s.windowEnd = horizon
			e.ready = append(e.ready, s)
		} else if len(s.outbox) > 0 {
			// Nothing safe (or nothing at all) to execute, but a
			// setup-time Send is parked in the outbox: join the window
			// with a zero horizon so deliver flushes it on time.
			s.windowEnd = 0
			e.ready = append(e.ready, s)
		}
	}
	e.execute()
	e.deliver()
	e.stats.Windows++
	return true
}

// execute runs every ready shard up to its horizon. Shards are
// disjoint state, so any assignment of shards to workers yields the
// same simulation; the atomic cursor only affects wall-clock.
func (e *Engine) execute() {
	if e.workers <= 1 || len(e.ready) < 2 {
		for _, s := range e.ready {
			n := s.clock.RunBefore(s.windowEnd)
			s.fired += uint64(n)
			e.stats.Events += uint64(n)
		}
		return
	}
	e.cursor.Store(0)
	for i := 0; i < e.workers; i++ {
		e.wake <- struct{}{}
	}
	for i := 0; i < e.workers; i++ {
		<-e.done
	}
	for _, s := range e.ready {
		e.stats.Events += s.fired - s.prevFired
	}
}

// deliver flushes every ready shard's outbox into the destination
// clocks in canonical (timestamp, sender, sequence) order. Ready
// shards are visited in id order and each outbox is already in send
// order, so the sort input — and with a stable tie-break, the output —
// is independent of how workers interleaved.
func (e *Engine) deliver() {
	e.flush = e.flush[:0]
	for _, s := range e.ready {
		e.flush = append(e.flush, s.outbox...)
		for i := range s.outbox {
			s.outbox[i].fn = nil // don't retain closures past delivery
		}
		s.outbox = s.outbox[:0]
	}
	if len(e.flush) == 0 {
		return
	}
	e.sortFlush()
	for i := range e.flush {
		m := &e.flush[i]
		e.shards[m.dst].clock.Schedule(m.at, m.fn)
		m.fn = nil
	}
	e.stats.Messages += uint64(len(e.flush))
}

// xeventLess is the canonical delivery order: timestamp, then sender,
// then send sequence — a total order, since (src, seq) is unique.
func xeventLess(a, b *xevent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// sortFlush orders e.flush canonically with a bottom-up merge sort
// over a persistent scratch buffer. sort.Slice would do the same job
// with an allocation per call (the closure and reflect-based swapper
// escape), and deliver runs once per window — at ext-cluster rates
// that garbage is the difference between a quiet and a churning GC.
func (e *Engine) sortFlush() {
	n := len(e.flush)
	if n < 2 {
		return
	}
	if cap(e.flushTmp) < n {
		e.flushTmp = make([]xevent, n)
	}
	a, b := e.flush, e.flushTmp[:n]
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				if j >= hi || (i < mid && !xeventLess(&a[j], &a[i])) {
					b[k] = a[i]
					i++
				} else {
					b[k] = a[j]
					j++
				}
			}
		}
		a, b = b, a
	}
	if &a[0] != &e.flush[0] {
		copy(e.flush, a)
		// The merge's last pass landed in the scratch buffer; after the
		// copy, drop the closures it still references.
		for i := range a {
			a[i].fn = nil
		}
	}
}

// startWorkers brings up the window worker pool.
func (e *Engine) startWorkers() {
	e.wake = make(chan struct{}, e.workers)
	e.done = make(chan struct{}, e.workers)
	e.wg.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		go e.worker()
	}
}

// stopWorkers tears the pool down (close wakes every worker out of
// its receive).
func (e *Engine) stopWorkers() {
	close(e.wake)
	e.wg.Wait()
	e.wake, e.done = nil, nil
}

// worker claims ready shards off the shared cursor until the window is
// drained, then reports at the barrier. Claiming is chunked to keep
// cursor contention off the fast path when thousands of shards are
// ready.
func (e *Engine) worker() {
	defer e.wg.Done()
	for range e.wake {
		n := int64(len(e.ready))
		chunk := int64(1)
		if per := n / int64(e.workers*8); per > chunk {
			chunk = per
		}
		for {
			hi := e.cursor.Add(chunk)
			lo := hi - chunk
			if lo >= n {
				break
			}
			if hi > n {
				hi = n
			}
			for _, s := range e.ready[lo:hi] {
				s.prevFired = s.fired
				s.fired += uint64(s.clock.RunBefore(s.windowEnd))
			}
		}
		e.done <- struct{}{}
	}
}

// String renders the stats for log lines and test failures.
func (s EngineStats) String() string {
	return fmt.Sprintf("%d windows, %d events, %d messages", s.Windows, s.Events, s.Messages)
}
