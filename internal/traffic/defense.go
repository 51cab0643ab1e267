package traffic

import (
	"time"

	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/sim"
)

// Overload defenses. Each is independently toggleable on Config via
// the Defense struct; all of them together are what turns the
// metastable collapse of ext-overload's defenses-off cells into
// bounded, recovering behaviour. Everything here is deterministic —
// pure functions of the request sequence — so defended runs stay
// byte-identical per seed.

// OverloadState is the serving plane's degradation level, driven by
// the observed control-plane backlog with hysteresis (see stateGauge).
type OverloadState int

const (
	// StateNormal: backlog comfortably under the latency target;
	// everything is served at full fidelity.
	StateNormal OverloadState = iota
	// StateBrownout: backlog past half the latency target. Brownout
	// serving (when enabled) switches to the degraded shell image and
	// skips non-essential store writes; priority shedding (when
	// enabled) starts turning away batch-class work.
	StateBrownout
	// StateShedding: backlog past the admission limit — requests are
	// being rejected outright.
	StateShedding
)

var stateNames = [...]string{"normal", "brownout", "shedding"}

func (s OverloadState) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// Class is a request's scheduling class for two-priority shedding.
type Class int

const (
	// ClassPaid is latency-sensitive foreground work: shed last.
	ClassPaid Class = iota
	// ClassBatch is delay-tolerant background work: shed first.
	ClassBatch
)

func (c Class) String() string {
	if c == ClassBatch {
		return "batch"
	}
	return "paid"
}

// Defense bundles the overload defenses. The zero value disables all
// of them, which reproduces the pre-defense serving plane exactly.
type Defense struct {
	// AdaptiveAdmit replaces the fixed MaxBacklog admission deadline
	// with an AIMD limit on control-plane lag: multiplicative decrease
	// when a response's latency exceeds LatencyTarget, additive
	// increase when it doesn't. The limit can never exceed MaxBacklog
	// — the static deadline remains the outer bound.
	AdaptiveAdmit bool
	// LatencyTarget is the response-latency goal the limiter steers
	// toward. Default Timeout/2.
	LatencyTarget time.Duration
	// RetryBudget > 0 caps re-arrival amplification: retries are
	// admitted only against a token bucket that earns RetryBudget
	// tokens per fresh arrival (Finagle-style budget, enforced at the
	// server's front door). 0 disables the budget.
	RetryBudget float64
	// PriorityShed tags a seeded batchFraction of fresh arrivals
	// ClassBatch and sheds them as soon as the plane leaves
	// StateNormal, reserving the remaining capacity for ClassPaid.
	PriorityShed bool
	// Brownout serves from a degraded shell image (half the memory,
	// half the image bytes, no console, no boot-time store chatter)
	// whenever the plane is past StateNormal, trading fidelity for
	// control-plane headroom.
	Brownout bool
}

// aimdLimiter adapts the admission limit on control-plane lag.
// Classic AIMD keeps the operating point near the cliff without
// camping on it: every response later than target multiplies the
// limit by aimdBeta, every response within target adds target/16.
type aimdLimiter struct {
	limit  time.Duration
	target time.Duration
	min    time.Duration
	max    time.Duration
}

const aimdBeta = 0.75

// batchFraction is the share of fresh arrivals tagged ClassBatch under
// PriorityShed.
const batchFraction = 0.25

func newAIMDLimiter(target, maxBacklog time.Duration) *aimdLimiter {
	min := target / 8
	if min <= 0 {
		min = time.Millisecond
	}
	return &aimdLimiter{limit: target, target: target, min: min, max: maxBacklog}
}

// observe feeds one produced response's latency into the controller.
func (l *aimdLimiter) observe(lat time.Duration) {
	if lat > l.target {
		l.limit = time.Duration(float64(l.limit) * aimdBeta)
	} else {
		l.limit += l.target / 16
	}
	if l.limit < l.min {
		l.limit = l.min
	}
	if l.limit > l.max {
		l.limit = l.max
	}
}

// retryBudget is the server-side token bucket bounding how many
// retries the plane will accept per fresh arrival.
type retryBudget struct {
	ratio  float64
	tokens float64
	cap    float64
}

func newRetryBudget(ratio float64) *retryBudget {
	cap := ratio * 64
	if cap < 4 {
		cap = 4
	}
	return &retryBudget{ratio: ratio, cap: cap, tokens: cap}
}

// earn accrues budget on a fresh arrival.
func (b *retryBudget) earn() {
	b.tokens += b.ratio
	if b.tokens > b.cap {
		b.tokens = b.cap
	}
}

// spend admits one retry if the budget allows.
func (b *retryBudget) spend() bool {
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// stateGauge tracks the Normal → Brownout → Shedding ladder with
// hysteresis and accounts time spent in each degraded state. Enter
// thresholds: backlog > target/2 for Brownout, backlog > the admission
// limit for Shedding. Exit back to Normal only below target/4, so the
// state does not flap across a single boundary.
type stateGauge struct {
	state     OverloadState
	target    time.Duration
	changedAt sim.Time
	changes   int
	inState   [3]time.Duration
}

func newStateGauge(target time.Duration, now sim.Time) *stateGauge {
	return &stateGauge{target: target, changedAt: now}
}

// observe folds one admission decision's backlog into the gauge and
// returns the state in force for this request.
func (g *stateGauge) observe(now sim.Time, backlog, limit time.Duration) OverloadState {
	next := g.state
	switch {
	case backlog > limit:
		next = StateShedding
	case backlog > g.target/2:
		next = StateBrownout
	case backlog <= g.target/4:
		next = StateNormal
	default:
		// Hysteresis band: hold the current state, but a shedding
		// plane whose backlog dropped under the limit has at least
		// recovered to brownout.
		if g.state == StateShedding {
			next = StateBrownout
		}
	}
	if next != g.state {
		g.inState[g.state] += now.Sub(g.changedAt)
		g.state = next
		g.changedAt = now
		g.changes++
	}
	return g.state
}

// flush closes the open interval at the end of the run.
func (g *stateGauge) flush(now sim.Time) {
	g.inState[g.state] += now.Sub(g.changedAt)
	g.changedAt = now
}

// retryReq is a storm re-arrival waiting in the client backoff queue.
type retryReq struct {
	at      sim.Time
	seq     int // tiebreak and FIFO order among equal times
	orig    int // fresh index of the original request
	attempt int // 1-based attempt number of THIS arrival (first try = 1)
	class   Class
}

// retryHeap is a hand-rolled min-heap on (at, seq): deterministic
// ordering, no interface boxing on the serving hot path.
type retryHeap []retryReq

func (h retryHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *retryHeap) push(r retryReq) {
	*h = append(*h, r)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h).less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *retryHeap) pop() retryReq {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && (*h).less(l, s) {
			s = l
		}
		if r < n && (*h).less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		(*h)[i], (*h)[s] = (*h)[s], (*h)[i]
		i = s
	}
	return top
}

// brownoutImage degrades img to its brownout shell: half the RAM,
// half the image bytes (a feature-stripped build), no console device
// and no boot-time store chatter — §4.2's "do less in the control
// plane" applied at runtime. The app and its network path survive, so
// degraded responses are still correct answers.
func brownoutImage(img guest.Image) guest.Image {
	img.Name += "+brownout"
	if img.MemBytes >= 2<<20 {
		img.MemBytes /= 2
	}
	if img.SizeBytes >= 2<<10 {
		img.SizeBytes /= 2
	}
	img.StoreOpsBoot = 0
	var devs []guest.DeviceSpec
	for _, d := range img.Devices {
		if d.Kind != hv.DevConsole {
			devs = append(devs, d)
		}
	}
	img.Devices = devs
	return img
}
