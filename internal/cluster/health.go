package cluster

import (
	"fmt"
	"sort"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/faults"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

// The health monitor replaces FailHost's omniscience with detection:
// every member heartbeats the controller on the virtual clock, and the
// controller moves it alive→suspect→dead on silence. The gray fault
// kinds (host-slow, partition, host-flap) attack exactly this protocol
// — a slow host's beats arrive late, a partitioned or flapping host's
// not at all — so the monitor can be wrong in both directions: failing
// over a host that was merely slow (a false positive, costed in
// ext-gray) or trusting one that is about to vanish. What keeps wrong
// cheap instead of catastrophic is the lease fence: every dead
// declaration bumps the epochs of the re-placed domains, so a
// declared-dead host that comes back finds its claims stale,
// self-scrubs, and never double-runs a domain.
//
// Determinism: the monitor runs one tick event per period; within a
// tick, hosts are visited in join order and every fault decision comes
// from the injector's per-kind streams, so a (seed, config) pair
// replays byte-identically. Ticks fire on whichever goroutine advances
// the clock, the cluster's one owner (see the package comment), so the
// monitor needs no synchronization of its own.

// HealthState is the monitor's view of one member.
type HealthState int

const (
	// HealthAlive members take placements.
	HealthAlive HealthState = iota
	// HealthSuspect members have been silent past SuspectAfter: they
	// keep their VMs but take no new work (degradation policy).
	HealthSuspect
	// HealthDead members have been silent past DeadAfter: their VMs
	// are failed over under fresh lease epochs.
	HealthDead
	// HealthQuarantined members tripped the flap circuit breaker: they
	// answer heartbeats but are never placed on again.
	HealthQuarantined
)

var healthStateNames = [...]string{"alive", "suspect", "dead", "quarantined"}

func (s HealthState) String() string {
	if s >= 0 && int(s) < len(healthStateNames) {
		return healthStateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// HealthConfig tunes the heartbeat protocol. Zero fields take the
// calibrated defaults from internal/costs.
type HealthConfig struct {
	Period       sim.Duration // heartbeat interval
	SuspectAfter sim.Duration // silence before a member is suspected
	DeadAfter    sim.Duration // silence before a suspect is declared dead
	FlapLimit    int          // suspect/dead recoveries before quarantine; 0 = default, <0 = never
}

func (cfg HealthConfig) withDefaults() HealthConfig {
	if cfg.Period <= 0 {
		cfg.Period = costs.HeartbeatPeriod
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = costs.HeartbeatSuspect
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = costs.HeartbeatDead
	}
	if cfg.FlapLimit == 0 {
		cfg.FlapLimit = 3
	}
	return cfg
}

// ctlNode is the controller's slot in the reachability matrix. The NUL
// prefix keeps it out of the host namespace.
const ctlNode = "\x00ctl"

// hostHealth is the monitor's per-member state.
type hostHealth struct {
	state      HealthState
	lastBeat   sim.Time // arrival time of the freshest heartbeat
	downSince  sim.Time // lastBeat at the moment of the dead declaration
	flaps      int      // recoveries from suspect/dead (circuit-breaker input)
	wasDead    bool     // dead-declared and not yet fenced on return
	flapUntil  sim.Time // host-flap: silent until then
	slowUntil  sim.Time // host-slow: dilated until then
	slowFactor float64
}

type healthMonitor struct {
	cfg   HealthConfig
	inj   *faults.Injector
	hosts map[string]*hostHealth
	cut   map[string]sim.Time // reachability matrix: edge key → cut until

	falsePositives int // dead declarations of hosts that were merely slow
	failovers      int // dead declarations (each starts a re-placement sweep)
	recovered      int // VMs re-placed by the monitor
	deferred       int // re-placement attempts deferred on saturation
	doubleStarts   int // fenced copies found still serving after a return scrub
	quarantined    int // circuit-breaker trips
	unavailMS      []float64
}

func (m *healthMonitor) addHost(name string, now sim.Time) {
	m.hosts[name] = &hostHealth{state: HealthAlive, lastBeat: now}
}

// edgeKey canonicalizes an undirected edge of the reachability matrix.
func edgeKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// edgeUp reports whether the a↔b edge is currently reachable, healing
// expired cuts as it goes.
func (m *healthMonitor) edgeUp(a, b string, now sim.Time) bool {
	k := edgeKey(a, b)
	until, cutNow := m.cut[k]
	if !cutNow {
		return true
	}
	if now >= until {
		delete(m.cut, k)
		return true
	}
	return false
}

// pickPeer chooses the far end of a new partition edge — the
// controller or another member — deterministically from the kind's
// side stream.
func (m *healthMonitor) pickPeer(names []string, self string) string {
	peers := make([]string, 1, len(names))
	peers[0] = ctlNode
	for _, n := range names {
		if n != self {
			peers = append(peers, n)
		}
	}
	i := int(m.inj.Fraction(faults.KindPartition) * float64(len(peers)))
	if i >= len(peers) {
		i = len(peers) - 1
	}
	return peers[i]
}

// EnableHealth arms the heartbeat monitor and, with it, the lease
// fence on every member (present and future). inj supplies the gray
// fault decisions (KindHostSlow/KindPartition/KindHostFlap); nil is a
// valid, fault-free monitor.
func (c *Cluster) EnableHealth(cfg HealthConfig, inj *faults.Injector) {
	if c.health != nil {
		return
	}
	m := &healthMonitor{
		cfg:   cfg.withDefaults(),
		inj:   inj,
		hosts: make(map[string]*hostHealth),
		cut:   make(map[string]sim.Time),
	}
	c.health = m
	now := c.Clock.Now()
	for _, n := range c.hostNames {
		m.addHost(n, now)
		c.armLease(n)
	}
	// Grant leases for anything placed before the monitor came up.
	vms := make([]string, 0, len(c.placement))
	for vm := range c.placement {
		vms = append(vms, vm)
	}
	sort.Strings(vms)
	for _, vmName := range vms {
		hostName := c.placement[vmName]
		if vm, err := c.hosts[hostName].Env.VM(vmName); err == nil {
			c.grantLease(hostName, vmName, vm.Mode)
		}
	}
	c.Clock.Schedule(now.Add(m.cfg.Period), c.healthTick)
}

// Health reports the monitor's view of one member (HealthAlive when
// the monitor is off or the member unknown).
func (c *Cluster) Health(name string) HealthState {
	if c.health == nil {
		return HealthAlive
	}
	hh, ok := c.health.hosts[name]
	if !ok {
		return HealthAlive
	}
	return hh.state
}

func (c *Cluster) reachable(a, b string) bool {
	if c.health == nil {
		return true
	}
	return c.health.edgeUp(a, b, c.Clock.Now())
}

// chargeSlow applies host-slow degradation to control-plane work
// that just ran on the named hosts: the elapsed interval is re-charged
// at (factor-1), dilating the operation exactly as a sick disk or a
// throttled CPU would. Inert when the monitor is off or nobody is
// slow.
func (c *Cluster) chargeSlow(start sim.Time, names ...string) {
	m := c.health
	if m == nil {
		return
	}
	now := c.Clock.Now()
	factor := 1.0
	for _, n := range names {
		hh := m.hosts[n]
		if hh != nil && now < hh.slowUntil && hh.slowFactor > factor {
			factor = hh.slowFactor
		}
	}
	if factor > 1 {
		c.Clock.Sleep(sim.Duration(float64(now.Sub(start)) * (factor - 1)))
	}
}

// healthTick is the monitor's periodic timer callback. It runs on
// whichever goroutine is advancing the clock (see the package comment).
// It reschedules itself only after the pass completes — failover work
// inside a pass can advance the clock, and rescheduling last keeps
// exactly one tick outstanding.
func (c *Cluster) healthTick() {
	m := c.health
	if m == nil {
		return
	}
	// A tick can fire from a clock advance nested inside a cluster
	// operation (a create sleeping half-way through taking a pool
	// shell, a migration mid-copy). Running a pass there would re-enter
	// toolstack state the operation has only half mutated — the
	// failover sweep creates VMs — so the pass defers to the next tick;
	// beats missed while deferred are re-delivered at the head of the
	// next pass, before silence is judged.
	if c.opDepth == 0 {
		c.healthPass()
	}
	c.Clock.Schedule(c.Clock.Now().Add(m.cfg.Period), c.healthTick)
}

// healthPass is one heartbeat round: deliver (or lose) every
// member's beat, then run state transitions — including monitor-driven
// failover, which charges virtual time on the shared timeline like the
// real controller's recovery work would.
func (c *Cluster) healthPass() {
	m := c.health
	now := c.Clock.Now()

	// Phase 1: gray events and heartbeat delivery, in join order.
	for _, n := range c.hostNames {
		if c.failed[n] {
			continue // a real corpse is silent forever
		}
		hh := m.hosts[n]
		// New gray episodes: one decision per kind per beat, drawn from
		// the kind's own stream, so schedules are independent.
		if now >= hh.flapUntil && m.inj.Fire(faults.KindHostFlap) {
			hh.flapUntil = now.Add(costs.GrayFlapMin + m.inj.Jitter(faults.KindHostFlap, costs.GrayFlapExtra))
		}
		if now >= hh.slowUntil && m.inj.Fire(faults.KindHostSlow) {
			hh.slowFactor = costs.GraySlowFactorMin +
				(costs.GraySlowFactorMax-costs.GraySlowFactorMin)*m.inj.Fraction(faults.KindHostSlow)
			hh.slowUntil = now.Add(costs.GraySlowMin + m.inj.Jitter(faults.KindHostSlow, costs.GraySlowExtra))
		}
		if m.inj.Fire(faults.KindPartition) {
			peer := m.pickPeer(c.hostNames, n)
			m.cut[edgeKey(n, peer)] = now.Add(costs.GrayPartitionMin + m.inj.Jitter(faults.KindPartition, costs.GrayPartitionExtra))
		}
		// Heartbeat delivery: flapped hosts are silent, partitioned
		// ones unreachable, slow ones late by (factor-1) periods.
		if now < hh.flapUntil || !m.edgeUp(n, ctlNode, now) {
			continue
		}
		beat := now
		if now < hh.slowUntil {
			beat = now.Add(-sim.Duration(float64(m.cfg.Period) * (hh.slowFactor - 1)))
		}
		if beat > hh.lastBeat {
			hh.lastBeat = beat
		}
	}

	// Phase 2: transitions. Failover below advances the clock; silence
	// is judged against the pass's start for determinism.
	for _, n := range c.hostNames {
		hh := m.hosts[n]
		silence := now.Sub(hh.lastBeat)
		switch {
		case silence >= m.cfg.DeadAfter:
			if hh.state != HealthDead {
				c.declareDead(n, hh, now)
			} else if c.ownsAny(n) {
				// Saturation deferred some re-placements; keep trying.
				c.failoverDead(n)
			}
		case silence >= m.cfg.SuspectAfter:
			if hh.state == HealthAlive {
				hh.state = HealthSuspect
			}
		default:
			if hh.state == HealthSuspect || hh.state == HealthDead {
				c.recoverHost(n, hh)
			}
		}
	}
}

// ownsAny reports whether any placement still maps to name.
func (c *Cluster) ownsAny(name string) bool {
	for _, owner := range c.placement {
		if owner == name {
			return true
		}
	}
	return false
}

// declareDead is the detection event: the member has been silent
// past DeadAfter. Its VMs are failed over under fresh epochs; if the
// member was in fact reachable and beating — merely slow — the
// declaration is counted as a false positive (flapped and partitioned
// members are indistinguishable from dead ones, so they are not).
func (c *Cluster) declareDead(name string, hh *hostHealth, now sim.Time) {
	m := c.health
	hh.state = HealthDead
	hh.wasDead = true
	hh.downSince = hh.lastBeat
	if !c.failed[name] && now >= hh.flapUntil && m.edgeUp(name, ctlNode, now) {
		m.falsePositives++
	}
	m.failovers++
	c.failoverDead(name)
}

// failoverDead re-places every VM the dead-declared member owns, in
// name order. Each successful re-placement bumps the VM's epoch (via
// grantLease inside Place), fencing the old copy. On saturation the VM
// stays with the old owner under its old epoch: if the host returns,
// its claim is still current and service resumes — better a gray owner
// than no owner.
func (c *Cluster) failoverDead(name string) {
	m := c.health
	h := c.hosts[name]
	var vms []string
	for vm, owner := range c.placement {
		if owner == name {
			vms = append(vms, vm)
		}
	}
	sort.Strings(vms)
	down := m.hosts[name].downSince
	for _, vmName := range vms {
		vm, err := h.Env.VM(vmName)
		if err != nil {
			delete(c.placement, vmName)
			continue
		}
		delete(c.placement, vmName)
		if _, _, perr := c.Place(vm.Mode, vmName, vm.Image); perr != nil {
			c.placement[vmName] = name
			m.deferred++
			continue
		}
		m.recovered++
		m.unavailMS = append(m.unavailMS,
			float64(c.Clock.Now().Sub(down))/float64(time.Millisecond))
	}
}

// recoverHost handles a member heartbeating again after being
// suspected or declared dead: the flap circuit breaker decides whether
// it rejoins the placement rotation or is quarantined, and a returning
// dead-declared member is fenced before anything else.
func (c *Cluster) recoverHost(name string, hh *hostHealth) {
	m := c.health
	wasDead := hh.wasDead
	hh.wasDead = false
	hh.flaps++
	if m.cfg.FlapLimit > 0 && hh.flaps >= m.cfg.FlapLimit {
		if hh.state != HealthQuarantined {
			m.quarantined++
		}
		hh.state = HealthQuarantined
	} else {
		hh.state = HealthAlive
	}
	if wasDead {
		c.fenceReturn(name)
	}
}

// fenceReturn is the split-brain endgame: a member the cluster
// declared dead (and failed over) is back. Before it takes any work it
// self-scrubs — journal replay validates each of its lease claims
// against the epoch table and reaps the stale copies (lease.go). The
// audit afterwards counts, rather than assumes away, any fenced copy
// still serving: that count is ext-gray's double-start metric and must
// be zero.
func (c *Cluster) fenceReturn(name string) {
	if c.failed[name] {
		return // a real corpse does not return
	}
	m := c.health
	h := c.hosts[name]
	c.opDepth++
	h.Env.Scrub(c.hostMode[name])
	c.opDepth--
	for _, vm := range h.Env.AllVMs() {
		owner, placed := c.placement[vm.Name]
		if placed && owner != name && vm.Booted {
			m.doubleStarts++
		}
	}
}

// EndGrayWindow closes the gray-fault injection window: episodes
// already under way run to their scheduled end, but the monitor draws
// no new ones. Experiments close the window before their drain phase so
// every cell converges to a steady state the safety audit can judge —
// with injection live, some host is always mid-episode and "post-scrub"
// never arrives.
func (c *Cluster) EndGrayWindow() {
	if c.health != nil {
		c.health.inj = nil
	}
}

// HealthReport aggregates the monitor's counters.
type HealthReport struct {
	FalsePositives int       // dead declarations of merely-slow hosts
	Failovers      int       // dead declarations (re-placement sweeps started)
	Recovered      int       // VMs re-placed by the monitor
	Deferred       int       // re-placement attempts deferred on saturation
	DoubleStarts   int       // fenced copies found serving after a return scrub (must be 0)
	Quarantined    int       // flap circuit-breaker trips
	StaleRejected  uint64    // operations the lease fence turned away, cluster-wide
	UnavailMS      []float64 // per-recovered-VM unavailability windows
}

// HealthReport snapshots the monitor's counters (zero value when the
// monitor is off).
func (c *Cluster) HealthReport() HealthReport {
	m := c.health
	if m == nil {
		return HealthReport{}
	}
	r := HealthReport{
		FalsePositives: m.falsePositives,
		Failovers:      m.failovers,
		Recovered:      m.recovered,
		Deferred:       m.deferred,
		DoubleStarts:   m.doubleStarts,
		Quarantined:    m.quarantined,
		UnavailMS:      append([]float64(nil), m.unavailMS...),
	}
	for _, n := range c.hostNames {
		r.StaleRejected += c.hosts[n].Env.StaleRejections()
	}
	return r
}

// FsckLeases checks the lease invariants cluster-wide, complementing
// the per-environment toolstack.Fsck: every placement must be backed
// by a current-epoch lease on its owner, and no live member may run a
// domain placed elsewhere (a double-run) or hold a claim for one.
func (c *Cluster) FsckLeases() []toolstack.Violation {
	var out []toolstack.Violation
	add := func(kind, subject, format string, args ...any) {
		out = append(out, toolstack.Violation{
			Layer: "cluster", Kind: kind, Subject: subject,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	if c.health == nil {
		return nil
	}
	vms := make([]string, 0, len(c.placement))
	for vm := range c.placement {
		vms = append(vms, vm)
	}
	sort.Strings(vms)
	for _, vmName := range vms {
		owner := c.placement[vmName]
		if c.failed[owner] || c.Health(owner) == HealthDead {
			continue // failover pending; audited once it completes
		}
		held, ok := c.hosts[owner].Env.LeaseEpoch(vmName)
		switch {
		case !ok:
			add("placement-without-lease", vmName, "placed on %q with no lease claim", owner)
		case held != c.epochs[vmName]:
			add("placement-epoch-skew", vmName, "owner %q holds epoch %d, cluster says %d", owner, held, c.epochs[vmName])
		}
	}
	for _, hostName := range c.hostNames {
		if c.failed[hostName] {
			continue
		}
		e := c.hosts[hostName].Env
		for _, vm := range e.AllVMs() {
			owner, placed := c.placement[vm.Name]
			if placed && owner != hostName && vm.Booted {
				add("double-run", vm.Name, "live on %q but placed on %q", hostName, owner)
			}
			if ep, leased := e.LeaseEpoch(vm.Name); leased && (!placed || owner != hostName) {
				add("stale-claim", vm.Name, "%q claims epoch %d for a domain it does not own", hostName, ep)
			}
		}
	}
	return out
}
