package toolstack

import (
	"math"
	"time"

	"lightvm/internal/sim"
)

// AutoscalePolicy selects how the shell-pool autoscaler picks the
// per-flavor depth the daemon keeps warm.
type AutoscalePolicy int

const (
	// ScaleReactive keeps a fixed depth of Min shells — the paper's
	// "certain (configurable) number of shells" (§5.2) verbatim. The
	// daemon refills after each take, so a burst that drains the pool
	// pays the cold path until the background beat catches up.
	ScaleReactive AutoscalePolicy = iota

	// ScalePredictive estimates the arrival rate with an EWMA over the
	// tick stream and pre-warms enough shells to cover the next Horizon
	// of arrivals plus a 25% headroom, clamped to [Min, Max]. Under a steady
	// rate the estimate — and with it the target — converges; under a
	// burst the target grows within a few ticks instead of after the
	// queue has already formed.
	ScalePredictive
)

func (p AutoscalePolicy) String() string {
	if p == ScalePredictive {
		return "predictive"
	}
	return "reactive"
}

// AutoscalerConfig parameterizes an Autoscaler. The zero value is
// usable: it becomes a reactive policy at the defaults below.
type AutoscalerConfig struct {
	Policy  AutoscalePolicy
	Min     int           // floor on the target depth (negative clamps to 0)
	Max     int           // ceiling on the target depth (default 64)
	Horizon time.Duration // predictive: arrivals to cover per beat (default 20ms)
}

// The predictive policy's safety fraction above the rate estimate, and
// the EWMA weight of the newest rate sample.
const scaleHeadroom, scaleAlpha = 0.25, 0.3

func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.Min < 0 {
		c.Min = 0
	}
	if c.Max <= 0 {
		c.Max = 64
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.Horizon <= 0 {
		c.Horizon = 20 * time.Millisecond
	}
	return c
}

// Autoscaler drives a Pool's target depth from the arrival stream the
// serving loop observes. The serving loop calls Tick whenever the
// control plane has slack (the same moments the chaos daemon would get
// the CPU); Tick retargets the pool and runs one replenish beat. It
// never takes shells itself — Take stays with the execute phase — so
// it can never hand the same shell out twice however its ticks
// interleave with the takers.
type Autoscaler struct {
	pool    *Pool
	cfg     AutoscalerConfig
	rate    float64 // EWMA arrivals/sec
	seeded  bool
	last    sim.Time
	pending int // arrivals reported on zero-width ticks, folded into the next window
}

// NewAutoscaler wires a policy to a pool and applies the initial
// target (Min for both policies — predictive has no estimate yet).
func NewAutoscaler(pool *Pool, cfg AutoscalerConfig) *Autoscaler {
	cfg = cfg.withDefaults()
	a := &Autoscaler{pool: pool, cfg: cfg}
	pool.SetTarget(cfg.Min)
	return a
}

// Rate reports the current arrivals/sec estimate (0 until the first
// non-empty predictive window).
func (a *Autoscaler) Rate() float64 {
	return a.rate
}

// Tick feeds the autoscaler the arrivals observed since the previous
// tick, retargets the pool, and runs one replenish beat. now is the
// serving loop's virtual clock; ticks must be monotone per autoscaler.
func (a *Autoscaler) Tick(now sim.Time, arrivals int) error {
	return a.TickUntil(now, arrivals, 0)
}

// TickUntil is Tick with the replenish beat bounded by a clock
// deadline (normally the next arrival): the daemon yields the control
// plane to foreground work instead of finishing the whole top-up.
func (a *Autoscaler) TickUntil(now sim.Time, arrivals int, deadline sim.Time) error {
	a.pool.SetTarget(a.retarget(now, arrivals))
	return a.pool.ReplenishUntil(deadline)
}

// retarget computes the new depth. Guaranteed non-negative: the result
// is clamped to [Min, Max] with Min ≥ 0 (and SetTarget clamps again).
func (a *Autoscaler) retarget(now sim.Time, arrivals int) int {
	if a.cfg.Policy != ScalePredictive {
		return a.cfg.Min
	}
	if !a.seeded {
		// First tick anchors the window; its arrivals have no width to
		// divide by yet.
		a.seeded = true
		a.last = now
		a.pending = arrivals
		return a.cfg.Min
	}
	elapsed := time.Duration(now - a.last)
	if elapsed <= 0 {
		a.pending += arrivals
	} else {
		inst := float64(arrivals+a.pending) / elapsed.Seconds()
		a.pending = 0
		a.last = now
		a.rate = scaleAlpha*inst + (1-scaleAlpha)*a.rate
	}
	need := int(math.Ceil(a.rate * a.cfg.Horizon.Seconds() * (1 + scaleHeadroom)))
	if need < a.cfg.Min {
		need = a.cfg.Min
	}
	if need > a.cfg.Max {
		need = a.cfg.Max
	}
	return need
}
