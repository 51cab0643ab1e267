package traffic

import (
	"errors"
	"fmt"
	"time"

	"lightvm/internal/apps"
	"lightvm/internal/core"
	"lightvm/internal/costs"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/mm"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
	"lightvm/internal/xenstore"
)

// Mode selects the serving backend a request lands on.
type Mode int

const (
	// VMPerRequest cold-boots a fresh unikernel for every request
	// (chaos + XenStore, empty pool) and tears it down after the
	// response — the paper's just-in-time instantiation taken
	// literally.
	VMPerRequest Mode = iota
	// PoolReactive serves from split-toolstack shells kept at a fixed
	// depth (§5.2's configurable pool) refilled reactively.
	PoolReactive
	// PoolPredictive is the same warm pool driven by the
	// rate-estimating autoscaler: depth follows the arrival rate.
	PoolPredictive
	// Container starts a Docker-style container per request.
	Container
	// Process fork/execs a plain process per request.
	Process
	// VMPerRequestXL is VMPerRequest on the stock toolstack (xl +
	// full XenStore registry) — the overload study's "what the paper
	// started from" arm. Appended after the original modes so their
	// numbering (and every existing figure) is untouched.
	VMPerRequestXL
)

var modeNames = [...]string{"vm", "pool-reactive", "pool-predictive", "container", "process", "vm-xl"}

func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return "unknown"
	}
	return modeNames[m]
}

// UsesPool reports whether the mode serves from warm shells.
func (m Mode) UsesPool() bool { return m == PoolReactive || m == PoolPredictive }

// isVM reports whether the mode serves from a unikernel guest.
func (m Mode) isVM() bool { return m != Container && m != Process }

// RejectReason classifies admission backpressure.
type RejectReason int

const (
	// RejectBacklog: the control plane is further behind the arrival
	// than MaxBacklog allows — serving this request would blow the
	// deadline anyway, so it is shed at admission.
	RejectBacklog RejectReason = iota
	// RejectCapacity: the backend refused the work outright (the
	// container engine hitting its memory wall, or a guest creation
	// failing against a memory-pressure episode).
	RejectCapacity
	// RejectOverload: the adaptive admission limiter (or the priority
	// shedder) turned the request away — defenses doing their job, as
	// opposed to the static deadline blowing.
	RejectOverload
	// RejectQuota: the store daemon refused the domain's registry
	// writes with a typed quota exhaustion.
	RejectQuota
	// RejectBudget: a retry arrived with the retry budget dry.
	RejectBudget
)

var rejectNames = [...]string{"backlog", "capacity", "overload", "quota", "retry-budget"}

func (r RejectReason) String() string {
	if r >= 0 && int(r) < len(rejectNames) {
		return rejectNames[r]
	}
	return "unknown"
}

// Config parameterizes one open-loop serving run. The host (an
// 8-core/32GB serving machine) and the guest image (Daytime) are
// fixed.
type Config struct {
	Mode     Mode
	Seed     uint64
	Arrivals Arrivals // required
	Requests int      // number of arrivals to generate (required)

	// MaxBacklog is the admission limit on control-plane lag; arrivals
	// finding a deeper queue are shed with RejectBacklog. Default 500ms.
	MaxBacklog time.Duration
	// Timeout is the client's end-to-end deadline; responses beyond it
	// count as timed out (the server still did the work). Default 1s.
	Timeout time.Duration

	// Scaler tunes the pool autoscaler (pool modes only; Policy is
	// overridden to match Mode).
	Scaler toolstack.AutoscalerConfig

	// FaultPlan, when its Rate is non-zero, arms the host's fault
	// plane for this run. The overload kinds are opt-in: name
	// KindRetryStorm to make a seeded fraction of rejected/timed-out
	// requests re-arrive after a client backoff, KindMemPressure /
	// KindStoreQuota for the resource-exhaustion faults.
	FaultPlan faults.Plan

	// Defense toggles the overload defenses (defense.go). The zero
	// value reproduces the undefended plane bit for bit.
	Defense Defense

	// RetryBackoff is the client's base backoff before a storm retry;
	// doubled per attempt, plus seeded jitter. Default Timeout/4. A
	// request makes at most maxAttempts (4) attempts in all.
	RetryBackoff time.Duration

	// PhaseBounds carves the run into accounting phases at these
	// offsets from the first arrival (e.g. pre-burst/burst/post-burst
	// boundaries); Stats.Phases gets len(PhaseBounds)+1 buckets keyed
	// by each request's arrival time. Empty leaves Phases nil.
	PhaseBounds []time.Duration
}

// maxAttempts bounds a request's total attempts (first try + storm
// retries).
const maxAttempts = 4

// PhaseStats is one accounting phase's slice of the run (see
// Config.PhaseBounds). Goodput is Good over the phase's wall time.
type PhaseStats struct {
	Arrived  int // all arrivals landing in the phase (fresh + retries)
	Fresh    int
	Retried  int // retry re-arrivals
	Served   int
	Good     int // served within the client deadline
	TimedOut int
	Rejected int
}

// Stats is one run's outcome. Latency only holds served requests;
// rejected arrivals never produce a response to measure.
type Stats struct {
	Mode             Mode
	Arrived          int
	Served           int // responses produced (includes timed-out ones)
	TimedOut         int // served past the deadline
	Rejected         int // shed at admission
	RejectedBacklog  int
	RejectedCapacity int
	RejectedOverload int // adaptive limiter / priority shedder
	RejectedQuota    int
	RejectedBudget   int // retries refused by the retry budget

	// Retry-storm accounting: re-arrivals admitted into the loop and
	// re-arrivals the storm scheduled (admitted + still queued +
	// budget-dropped).
	Retries        int
	RetryScheduled int

	// Two-priority shedding: rejections by request class.
	ShedPaid  int
	ShedBatch int

	// Brownout accounting: responses served from the degraded image,
	// time spent in each degraded state, and state-ladder transitions.
	DegradedServed int
	BrownoutTime   time.Duration
	SheddingTime   time.Duration
	StateChanges   int

	// Phases buckets the run by Config.PhaseBounds (nil when unset).
	Phases []PhaseStats

	Latency  metrics.Histogram
	Warm     []int // shells-warm samples over time (every Requests/16 fresh arrivals)
	AppCalls uint64
	Elapsed  time.Duration // virtual time consumed
}

// TimeoutRate is timed-out responses over arrivals.
func (s *Stats) TimeoutRate() float64 {
	if s.Arrived == 0 {
		return 0
	}
	return float64(s.TimedOut) / float64(s.Arrived)
}

// RejectRate is shed arrivals over arrivals.
func (s *Stats) RejectRate() float64 {
	if s.Arrived == 0 {
		return 0
	}
	return float64(s.Rejected) / float64(s.Arrived)
}

// Merge folds another run's stats into s (per-host runs into a fleet
// aggregate). Warm samples and phase buckets are summed index-wise;
// the state-time durations sum (aggregate host-time in each state);
// Elapsed is the max (hosts run concurrently).
func (s *Stats) Merge(o *Stats) {
	s.Arrived += o.Arrived
	s.Served += o.Served
	s.TimedOut += o.TimedOut
	s.Rejected += o.Rejected
	s.RejectedBacklog += o.RejectedBacklog
	s.RejectedCapacity += o.RejectedCapacity
	s.RejectedOverload += o.RejectedOverload
	s.RejectedQuota += o.RejectedQuota
	s.RejectedBudget += o.RejectedBudget
	s.Retries += o.Retries
	s.RetryScheduled += o.RetryScheduled
	s.ShedPaid += o.ShedPaid
	s.ShedBatch += o.ShedBatch
	s.DegradedServed += o.DegradedServed
	s.BrownoutTime += o.BrownoutTime
	s.SheddingTime += o.SheddingTime
	s.StateChanges += o.StateChanges
	s.AppCalls += o.AppCalls
	s.Latency.Merge(&o.Latency)
	if o.Elapsed > s.Elapsed {
		s.Elapsed = o.Elapsed
	}
	for i, w := range o.Warm {
		if i < len(s.Warm) {
			s.Warm[i] += w
		} else {
			s.Warm = append(s.Warm, w)
		}
	}
	for i, p := range o.Phases {
		if i < len(s.Phases) {
			s.Phases[i].Arrived += p.Arrived
			s.Phases[i].Fresh += p.Fresh
			s.Phases[i].Retried += p.Retried
			s.Phases[i].Served += p.Served
			s.Phases[i].Good += p.Good
			s.Phases[i].TimedOut += p.TimedOut
			s.Phases[i].Rejected += p.Rejected
		} else {
			s.Phases = append(s.Phases, p)
		}
	}
}

// Serve runs one open-loop serving timeline on a fresh host and
// returns its stats plus the host (for fsck and inspection).
//
// The model follows fig16b: the Dom0 control plane serializes on the
// host clock, so a request whose arrival predates the clock queues
// implicitly; in the idle gap before an arrival the autoscaler gets
// the CPU (retarget + replenish) exactly where the real chaos daemon
// would. Guest boot work runs on the guest cores in parallel with the
// control plane, so it is stripped from the image and added to the
// response latency instead of the Dom0 timeline.
func Serve(cfg Config) (*Stats, *core.Host, error) {
	if cfg.Arrivals == nil {
		return nil, nil, errors.New("traffic: Config.Arrivals is required")
	}
	if cfg.Requests <= 0 {
		return nil, nil, errors.New("traffic: Config.Requests must be positive")
	}
	maxBacklog := cfg.MaxBacklog
	if maxBacklog <= 0 {
		maxBacklog = 500 * time.Millisecond
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	warmEvery := max(cfg.Requests/16, 1)
	retryBackoff := cfg.RetryBackoff
	if retryBackoff <= 0 {
		retryBackoff = timeout / 4
	}
	d := cfg.Defense
	if d.LatencyTarget <= 0 {
		d.LatencyTarget = timeout / 2
	}

	h, err := newServeHost(cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	if cfg.FaultPlan.Rate > 0 {
		h.Env.SetFaults(faults.New(h.Clock, cfg.Seed, cfg.FaultPlan))
	}
	in := h.Env.Faults // nil without a plan; nil injectors never fire

	isVM := cfg.Mode.isVM()
	img := guest.Daytime()
	var bootWork time.Duration // guest boot, off the Dom0 timeline; none outside the VM modes
	if isVM {
		bootWork = img.BootWork
	}
	img.BootWork = time.Microsecond
	degImg := brownoutImage(img)

	var scaler *toolstack.Autoscaler
	if cfg.Mode.UsesPool() {
		h.Env.Pool.Register(img, modeToolstack(cfg.Mode).UsesStore())
		pol := cfg.Scaler
		if pol.Min <= 0 {
			pol.Min = 8 // the pool's own default depth
		}
		if cfg.Mode == PoolPredictive {
			pol.Policy = toolstack.ScalePredictive
		} else {
			pol.Policy = toolstack.ScaleReactive
		}
		scaler = toolstack.NewAutoscaler(h.Env.Pool, pol)
		// Prime the pool before traffic starts, as the daemon does on
		// configuration.
		if err := scaler.Tick(h.Clock.Now(), 0); err != nil && !errors.Is(err, mm.ErrOutOfMemory) {
			return nil, nil, err
		}
	}

	// Per-response floor: switch forwarding both ways plus the guest
	// answering the connection.
	const appWork = 2*costs.BridgeForward + costs.PingProcess
	// Every VM-mode guest runs the daytime server; one instance answers
	// for all of them.
	app := &apps.Daytime{Clock: h.Clock}

	st := &Stats{Mode: cfg.Mode}
	if len(cfg.PhaseBounds) > 0 {
		st.Phases = make([]PhaseStats, len(cfg.PhaseBounds)+1)
	}

	var lim *aimdLimiter
	if d.AdaptiveAdmit {
		lim = newAIMDLimiter(d.LatencyTarget, maxBacklog)
	}
	var budget *retryBudget
	if d.RetryBudget > 0 {
		budget = newRetryBudget(d.RetryBudget)
	}
	var classRNG *sim.RNG
	if d.PriorityShed {
		classRNG = sim.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15)
	}

	// Traffic opens once the host is ready: the pool prime ran on the
	// clock, and no real deployment points the load balancer at a host
	// mid-warmup.
	start := h.Clock.Now()
	var gauge *stateGauge
	if d.Brownout || d.PriorityShed {
		gauge = newStateGauge(d.LatencyTarget, start)
	}
	phaseOf := func(at sim.Time) *PhaseStats {
		if st.Phases == nil {
			return nil
		}
		rel := at.Sub(start)
		i := 0
		for i < len(cfg.PhaseBounds) && rel >= cfg.PhaseBounds[i] {
			i++
		}
		return &st.Phases[i]
	}

	// The request in flight: its accounting phase, class, fresh index
	// and 1-based attempt number.
	var (
		ph            *PhaseStats
		class         Class
		orig, attempt int
	)

	// The retry storm's client backoff queue: re-arrivals merge with
	// fresh traffic in virtual-time order. Heap order is (time, seq),
	// both deterministic, so per-shard replay is byte-identical.
	var retries retryHeap
	retrySeq := 0
	scheduleRetry := func(from sim.Time) {
		if attempt >= maxAttempts || !in.Fire(faults.KindRetryStorm) {
			return
		}
		backoff := retryBackoff << uint(attempt-1)
		backoff += in.Jitter(faults.KindRetryStorm, retryBackoff)
		retries.push(retryReq{at: from.Add(backoff), seq: retrySeq, orig: orig, attempt: attempt + 1, class: class})
		retrySeq++
		st.RetryScheduled++
	}
	observe := func(lat time.Duration) {
		st.Latency.Observe(lat)
		st.Served++
		if lat > timeout {
			st.TimedOut++
		}
		if ph != nil {
			ph.Served++
			if lat > timeout {
				ph.TimedOut++
			} else {
				ph.Good++
			}
		}
		if lim != nil {
			lim.observe(lat)
		}
	}
	// shed rejects the request in flight and lets the storm re-arrive
	// it — except a retry refused by a dry budget, which is exactly how
	// the budget breaks the feedback loop.
	shed := func(reason RejectReason) {
		st.Rejected++
		switch reason {
		case RejectCapacity:
			st.RejectedCapacity++
		case RejectOverload:
			st.RejectedOverload++
		case RejectQuota:
			st.RejectedQuota++
		case RejectBudget:
			st.RejectedBudget++
		default:
			st.RejectedBacklog++
		}
		if d.PriorityShed {
			if class == ClassBatch {
				st.ShedBatch++
			} else {
				st.ShedPaid++
			}
		}
		if ph != nil {
			ph.Rejected++
		}
		if reason != RejectBudget {
			scheduleRetry(h.Clock.Now())
		}
	}

	sinceTick := 0
	freshLeft := cfg.Requests
	k := -1 // index of the current fresh arrival
	freshAt := start.Add(cfg.Arrivals.Next())
	for freshLeft > 0 || len(retries) > 0 {
		var arrive sim.Time
		isRetry := len(retries) > 0 && (freshLeft == 0 || retries[0].at <= freshAt)
		if isRetry {
			rr := retries.pop()
			arrive, orig, attempt, class = rr.at, rr.orig, rr.attempt, rr.class
		} else {
			k++
			freshLeft--
			arrive, orig, attempt, class = freshAt, k, 1, ClassPaid
			if freshLeft > 0 {
				freshAt = freshAt.Add(cfg.Arrivals.Next())
			}
			if classRNG != nil && classRNG.Float64() < batchFraction {
				class = ClassBatch
			}
			if budget != nil {
				budget.earn()
			}
		}
		st.Arrived++
		sinceTick++
		ph = phaseOf(arrive)
		if ph != nil {
			ph.Arrived++
			if isRetry {
				ph.Retried++
			} else {
				ph.Fresh++
			}
		}
		if isRetry {
			st.Retries++
		}
		if h.Clock.Now() < arrive {
			// Idle gap: the daemon gets the CPU until the next arrival
			// (the replenish beat yields to foreground work at the
			// deadline rather than batching an unbounded top-up). A
			// prepare starved by a memory-pressure episode rolls back
			// and ends the beat; the daemon retries at the next gap and
			// a pool miss meanwhile takes the cold path.
			if scaler != nil {
				if err := scaler.TickUntil(h.Clock.Now(), sinceTick, arrive); err != nil && !errors.Is(err, mm.ErrOutOfMemory) {
					return nil, nil, err
				}
				sinceTick = 0
			}
			h.Clock.AdvanceTo(arrive)
		}
		if !isRetry && k%warmEvery == 0 {
			w := 0
			if scaler != nil {
				w = h.Env.Pool.Available(img, modeToolstack(cfg.Mode).UsesStore())
			}
			st.Warm = append(st.Warm, w)
		}
		backlog := h.Clock.Now().Sub(arrive)
		limit := maxBacklog
		if lim != nil {
			limit = lim.limit
		}
		state := StateNormal
		if gauge != nil {
			state = gauge.observe(h.Clock.Now(), backlog, limit)
		}
		switch {
		case isRetry && budget != nil && !budget.spend():
			shed(RejectBudget)
			continue
		case d.PriorityShed && class == ClassBatch && state != StateNormal,
			backlog > limit && lim != nil:
			shed(RejectOverload)
			continue
		case backlog > limit:
			shed(RejectBacklog)
			continue
		}

		useImg, degraded := img, isVM && d.Brownout && state != StateNormal
		if degraded {
			useImg = degImg
		}
		var name string
		if isVM {
			name = fmt.Sprintf("req%d", orig)
			if isRetry {
				name = fmt.Sprintf("req%d.%d", orig, attempt)
			}
		}
		inst, err := launch(h, cfg.Mode, name, useImg)
		if err != nil {
			var qe *xenstore.ErrQuotaExceeded
			switch {
			case !isVM || errors.Is(err, mm.ErrOutOfMemory):
				// The backend saying no — the container engine's memory
				// wall, or a pressure episode eating a guest's headroom
				// (the driver already rolled the half-built domain
				// back) — is backpressure, not a simulation bug.
				shed(RejectCapacity)
			case errors.As(err, &qe):
				shed(RejectQuota)
			default:
				return nil, nil, fmt.Errorf("traffic: create %s: %w", name, err)
			}
			continue
		}
		// A guest finishes booting bootWork later, on its own core, and
		// then answers.
		lat := h.Clock.Now().Add(bootWork).Sub(arrive) + appWork
		if isVM {
			app.Serve()
		}
		if degraded {
			st.DegradedServed++
		}
		observe(lat)
		if lat > timeout {
			scheduleRetry(arrive.Add(timeout))
		}
		// Teardown rides the control plane after the response — it is
		// off this request's latency but delays the next one.
		if err := stop(h, inst); err != nil {
			return nil, nil, err
		}
	}
	if gauge != nil {
		gauge.flush(h.Clock.Now())
		st.BrownoutTime = gauge.inState[StateBrownout]
		st.SheddingTime = gauge.inState[StateShedding]
		st.StateChanges = gauge.changes
	}
	st.AppCalls = app.Served
	st.Elapsed = h.Clock.Now().Sub(sim.Time(0))
	return st, h, nil
}

// modeToolstack maps a serving mode to the toolstack driving it.
func modeToolstack(m Mode) toolstack.Mode {
	switch {
	case m.UsesPool():
		return toolstack.ModeChaosSplit
	case m == VMPerRequestXL:
		return toolstack.ModeXL
	default:
		return toolstack.ModeChaosXS
	}
}
