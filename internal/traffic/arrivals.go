// Package traffic drives the simulated hosts with open-loop request
// traffic: arrivals are generated by a seeded stochastic process on
// the virtual clock and do NOT wait for earlier requests to finish —
// exactly the regime where the paper's just-in-time instantiation
// claim lives or dies. A closed-loop generator (issue, wait, repeat)
// can never overload the system and therefore never sees the tail;
// the open-loop one keeps arriving on schedule while the control
// plane falls behind, which is what produces queueing, admission
// rejection, and the p999.
package traffic

import (
	"time"

	"lightvm/internal/sim"
)

// Arrivals is an arrival process: Next returns the gap to the next
// arrival on the virtual clock. Implementations are deterministic for
// a given seed and never allocate in Next — at 100k simulated RPS the
// generator runs once per request on the hot path.
type Arrivals interface {
	Next() time.Duration
}

// meanGap converts a rate in requests/sec to the mean inter-arrival
// gap.
func meanGap(ratePerSec float64) time.Duration {
	if ratePerSec <= 0 {
		return time.Second
	}
	return time.Duration(float64(time.Second) / ratePerSec)
}

// Poisson is memoryless open-loop traffic: exponential gaps at a
// fixed rate. The classic telco model and the figure's baseline
// pattern.
type Poisson struct {
	rng  *sim.RNG
	mean time.Duration
}

// NewPoisson builds a Poisson process at ratePerSec arrivals/sec.
func NewPoisson(seed uint64, ratePerSec float64) *Poisson {
	return &Poisson{rng: sim.NewRNG(seed), mean: meanGap(ratePerSec)}
}

// Next returns the next exponential gap.
func (p *Poisson) Next() time.Duration { return p.rng.Exp(p.mean) }

// MMPP is a two-state Markov-modulated Poisson process: calm traffic
// at half the nominal rate (~80% of the time) punctuated by bursts at
// 3x (~20% of the time), averaging the nominal rate. The burst
// timeline is driven only by modSeed, so hosts sharing a modSeed see
// bursts at the same virtual times — a fleet-wide flash crowd, not
// independent per-host noise — while gapSeed decorrelates the
// individual arrivals.
type MMPP struct {
	mod  *sim.RNG // state dwell chain (share the seed to share bursts)
	gaps *sim.RNG

	calmMean, burstMean   time.Duration
	calmDwell, burstDwell time.Duration

	cursor   sim.Time // virtual time of the last arrival
	switchAt sim.Time // next state flip
	burst    bool
}

// NewMMPP builds the bursty process around a nominal ratePerSec.
func NewMMPP(modSeed, gapSeed uint64, ratePerSec float64) *MMPP {
	m := &MMPP{
		mod:        sim.NewRNG(modSeed),
		gaps:       sim.NewRNG(gapSeed),
		calmMean:   meanGap(ratePerSec * 0.5),
		burstMean:  meanGap(ratePerSec * 3),
		calmDwell:  400 * time.Millisecond,
		burstDwell: 100 * time.Millisecond,
	}
	m.switchAt = sim.Time(m.mod.Exp(m.calmDwell))
	return m
}

// Next returns the next gap, flipping the modulating state whenever
// the arrival cursor crosses a dwell boundary. Every instance
// consumes the dwell chain in the same order, so the flip times are
// identical for every MMPP sharing a modSeed.
func (m *MMPP) Next() time.Duration {
	mean := m.calmMean
	if m.burst {
		mean = m.burstMean
	}
	g := m.gaps.Exp(mean)
	m.cursor = m.cursor.Add(g)
	for m.cursor >= m.switchAt {
		m.burst = !m.burst
		dwell := m.calmDwell
		if m.burst {
			dwell = m.burstDwell
		}
		m.switchAt = m.switchAt.Add(m.mod.Exp(dwell))
	}
	return g
}

// Trace replays a recorded gap sequence, cycling when it runs out.
// The replayed-trace pattern decouples the figure from any analytic
// process: whatever shape the trace has — diurnal wave, flash crowd,
// production capture — the serving loop sees it verbatim.
type Trace struct {
	gaps []time.Duration
	i    int
}

// Next replays the next recorded gap.
func (t *Trace) Next() time.Duration {
	g := t.gaps[t.i]
	t.i++
	if t.i == len(t.gaps) {
		t.i = 0
	}
	return g
}

// PhaseRate is one segment of a Phased process: Poisson arrivals at
// Rate until the arrival cursor crosses Until (0 = forever; the last
// segment's bound is ignored).
type PhaseRate struct {
	Rate  float64       // arrivals/sec in this phase
	Until time.Duration // phase ends when cumulative time crosses this
}

// Phased is a piecewise-Poisson process: the rate switches at fixed
// virtual-time boundaries. The overload study uses it for its
// pre-burst / burst / post-burst timeline — the boundaries are known
// exactly, so goodput can be accounted per phase without estimating
// changepoints. Memoryless approximation at the seams: each gap is
// drawn at the rate in force when the previous arrival landed.
type Phased struct {
	rng    *sim.RNG
	phases []PhaseRate
	cursor sim.Time
	idx    int
}

// NewPhased builds a phased process from at least one segment.
// Segments with non-increasing Until bounds are skipped over
// immediately; a nil or empty phase list degenerates to 1 req/s
// forever.
func NewPhased(seed uint64, phases []PhaseRate) *Phased {
	if len(phases) == 0 {
		phases = []PhaseRate{{Rate: 1}}
	}
	return &Phased{rng: sim.NewRNG(seed), phases: phases}
}

// Next returns the next gap at the current phase's rate, advancing the
// phase when the cursor crosses its boundary.
func (p *Phased) Next() time.Duration {
	for p.idx < len(p.phases)-1 &&
		p.phases[p.idx].Until > 0 && p.cursor >= sim.Time(p.phases[p.idx].Until) {
		p.idx++
	}
	g := p.rng.Exp(meanGap(p.phases[p.idx].Rate))
	p.cursor = p.cursor.Add(g)
	return g
}

// FlashTrace synthesizes an n-gap replayable trace: steady traffic at
// 70% of the nominal rate with a flash crowd at 4x through the middle
// fifth of the arrivals — the shape of a link going viral.
func FlashTrace(seed uint64, ratePerSec float64, n int) *Trace {
	if n <= 0 {
		n = 1
	}
	rng := sim.NewRNG(seed)
	gaps := make([]time.Duration, n)
	for i := range gaps {
		r := ratePerSec * 0.7
		if i >= 2*n/5 && i < 3*n/5 {
			r = ratePerSec * 4
		}
		gaps[i] = rng.Exp(meanGap(r))
	}
	return &Trace{gaps: gaps}
}
