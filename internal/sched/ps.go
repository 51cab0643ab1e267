package sched

import (
	"math"
	"time"

	"lightvm/internal/sim"
)

// PS is an event-driven processor-sharing queue over a set of cores:
// the k jobs on one core each progress at rate 1/k. The §7 use cases
// run their VM workloads through it (compute-service jobs in Fig. 17,
// firewall packet work in Fig. 16a), so completion times under
// overload emerge from sharing rather than from a formula.
type PS struct {
	clock *sim.Clock
	cores []*psCore // indexed by core number
}

type psCore struct {
	jobs       []*psJob // unfinished jobs in submission order
	lastUpdate sim.Time
	timerSeq   int // invalidates stale completion timers
}

type psJob struct {
	remaining time.Duration
	done      func(finished sim.Time)
}

// NewPS creates a processor-sharing queue on clock.
func NewPS(clock *sim.Clock) *PS {
	return &PS{clock: clock}
}

// Submit queues work on core; done (optional) runs at completion with
// the completion time.
func (ps *PS) Submit(core int, work time.Duration, done func(sim.Time)) {
	c := ps.core(core)
	ps.catchUp(c)
	c.jobs = append(c.jobs, &psJob{remaining: work, done: done})
	ps.rearm(core, c)
}

// Active reports the number of unfinished jobs on core.
func (ps *PS) Active(core int) int {
	c := ps.core(core)
	ps.catchUp(c)
	return len(c.jobs)
}

// TotalActive reports unfinished jobs across all cores.
func (ps *PS) TotalActive() int {
	n := 0
	for _, c := range ps.cores {
		ps.catchUp(c)
		n += len(c.jobs)
	}
	return n
}

// core returns core's state, creating it and every lower-numbered core
// not yet used. An unused core holds no jobs, and its lastUpdate is
// set by the catchUp that precedes its first job.
func (ps *PS) core(core int) *psCore {
	for len(ps.cores) <= core {
		ps.cores = append(ps.cores, &psCore{})
	}
	return ps.cores[core]
}

// catchUp applies elapsed progress to every job on the core and fires
// completions that are already due.
func (ps *PS) catchUp(c *psCore) {
	now := ps.clock.Now()
	elapsed := now.Sub(c.lastUpdate)
	c.lastUpdate = now
	for elapsed > 0 && len(c.jobs) > 0 {
		k := time.Duration(len(c.jobs))
		// Earliest finisher bounds how long the current sharing level
		// persists.
		min := time.Duration(math.MaxInt64)
		for _, j := range c.jobs {
			if j.remaining < min {
				min = j.remaining
			}
		}
		span := min * k // wall time until the earliest job finishes
		if span > elapsed {
			// No completion within the window: everyone progresses.
			progress := elapsed / k
			for _, j := range c.jobs {
				j.remaining -= progress
			}
			return
		}
		// Advance to the completion point and retire finished jobs.
		// Simultaneous finishers complete in submission order.
		elapsed -= span
		finishAt := now.Add(-sim.Duration(elapsed))
		var finished []*psJob
		kept := c.jobs[:0]
		for _, j := range c.jobs {
			j.remaining -= min
			if j.remaining <= 0 {
				finished = append(finished, j)
			} else {
				kept = append(kept, j)
			}
		}
		clear(c.jobs[len(kept):])
		c.jobs = kept
		for _, j := range finished {
			if j.done != nil {
				j.done(finishAt)
			}
		}
	}
}

// rearm schedules a wake-up at the core's next completion so that
// completions fire even if nobody polls.
func (ps *PS) rearm(core int, c *psCore) {
	c.timerSeq++
	seq := c.timerSeq
	if len(c.jobs) == 0 {
		return
	}
	min := time.Duration(math.MaxInt64)
	for _, j := range c.jobs {
		if j.remaining < min {
			min = j.remaining
		}
	}
	wake := min * time.Duration(len(c.jobs))
	ps.clock.After(wake, func() {
		if c.timerSeq != seq {
			return // superseded by a later Submit
		}
		ps.catchUp(c)
		ps.rearm(core, c)
	})
}

// Drain runs the clock forward until every job on every core has
// completed, returning the finish time. Cores are caught up, and
// re-armed, in core order.
func (ps *PS) Drain() sim.Time {
	for {
		busy := false
		for _, c := range ps.cores {
			ps.catchUp(c)
			if len(c.jobs) > 0 {
				busy = true
			}
		}
		if !busy {
			return ps.clock.Now()
		}
		if dl, ok := ps.clock.NextDeadline(); ok {
			ps.clock.AdvanceTo(dl)
		} else {
			// No timer armed (all stale): re-arm every busy core.
			for core, c := range ps.cores {
				if len(c.jobs) > 0 {
					ps.rearm(core, c)
				}
			}
		}
	}
}
