// Package faults is the simulator's deterministic fault plane. The
// paper's control planes — XenStore transactions, split-driver
// handshakes, the chaos daemon pool, migration TCP streams — are real
// distributed machinery, and §7.1's mobile-edge scenario depends on
// hosts surviving churn; this package lets experiments inject the
// failures those mechanisms must recover from, reproducibly.
//
// Every decision is a pure function of (seed, fault kind, per-kind
// opportunity index): each injection site draws from its own stream,
// so traffic at one site never perturbs another's sequence, and two
// runs with the same seed inject byte-identical fault schedules. A nil
// *Injector never fires and costs one pointer comparison, so the fault
// plane is zero-cost when disabled.
package faults

import (
	"fmt"
	"sort"

	"lightvm/internal/sim"
)

// Kind enumerates the injectable fault classes and, implicitly, the
// injection sites that consult them.
//
// The enum is APPEND-ONLY. Each kind's decision stream is keyed by its
// numeric value, so inserting or reordering kinds would shift every
// existing per-kind schedule and silently change checked-in golden
// figures. New kinds go after the last one, get a name appended to
// kindNames, and — if firing them can abandon work or change workload
// outcomes — join optInKinds so fault-oblivious drivers with an empty
// Plan.Kinds never see them (faults_test.go pins both the numbering
// and the mask).
type Kind int

const (
	// KindTxnConflict aborts a XenStore transaction commit with
	// ErrAgain (site: xenstore.Tx.Commit). Recovery: bounded retry
	// with exponential backoff + jitter in Store.Txn.
	KindTxnConflict Kind = iota
	// KindStoreStall freezes the store daemon for one operation
	// (site: xenstore chargeOp). Recovery: none needed — the stall is
	// pure latency, absorbed by the caller.
	KindStoreStall
	// KindHandshakeStall makes a xenbus backend drop a split-driver
	// handshake event (site: xenbus.Backend watch). Recovery: the
	// toolstack's watch timeout re-attaches the device; exhaustion
	// surfaces xenbus.ErrDeviceTimeout.
	KindHandshakeStall
	// KindMigrationDrop severs the migration TCP stream mid-transfer
	// (site: migrate.Migrate step 3). Recovery: resumable transfer on
	// the noxs path; clean rollback (source resumes, destination shell
	// reaped) on both paths.
	KindMigrationDrop
	// KindDaemonCrash kills the chaos pool daemon, losing its
	// pre-created shells (site: toolstack.Pool). Recovery: drain
	// detection, cold-path inline prepare, bash-hotplug failover while
	// the daemon restarts.
	KindDaemonCrash
	// KindHostFailure fails a whole host (site: experiment driver over
	// internal/cluster). Recovery: cluster failover re-instantiates
	// the lost VMs on surviving hosts with §7.1's placement.
	KindHostFailure
	// KindToolstackCrash kills the toolstack at a labeled crash point
	// inside a lifecycle operation (sites: XL/Chaos Create/Destroy,
	// Pool.Prepare/finalize, clone). The operation aborts on the spot,
	// leaving whatever partial state — store nodes, device-page
	// entries, hv domains, pool shells — it had built. Recovery: the
	// intent journal + scrubber (internal/toolstack/scrub.go) roll the
	// half-done domain forward or back. Unlike every other kind this
	// one is opt-in: a Plan with empty Kinds does NOT include it,
	// because only crash-aware drivers (ext-churn, the fsck tests) can
	// survive an operation that deliberately leaks.
	KindToolstackCrash
	// KindHostSlow degrades a host instead of killing it: control-plane
	// work on the victim is dilated by a deterministic factor and its
	// heartbeats arrive late (site: cluster health monitor). Recovery:
	// none needed on the host — the monitor's job is to suspect it and
	// route placements elsewhere without a false dead declaration.
	KindHostSlow
	// KindPartition cuts one edge of the cluster's pairwise
	// reachability matrix for a while — host↔controller (heartbeats
	// lost, the host looks dead while its guests keep running) or
	// host↔host (migrations between them fail). Recovery: the lease
	// fence — a partitioned host declared dead must not double-run
	// domains that were failed over, and self-scrubs when the edge
	// heals.
	KindPartition
	// KindHostFlap silences a host completely, then lets it return as
	// if nothing happened (site: cluster health monitor). The nastiest
	// gray failure: detection must be fast enough to restore the
	// guests, yet the returner must be fenced and the circuit breaker
	// must quarantine repeat offenders instead of flapping placements
	// back and forth.
	KindHostFlap
	// KindMemPressure shrinks the host's memory headroom: dom0 (or a
	// noisy neighbor) balloons away a deterministic fraction of the
	// free pages for a while, so guest creations hit mm.ErrOutOfMemory
	// and dedup'd populations lose their COW headroom (sites:
	// toolstack Env.PopulateGuest via the pressure gate). Recovery:
	// the pressure window expires on its own; the serving plane maps
	// the allocation failure to a typed capacity rejection instead of
	// aborting. Opt-in like KindToolstackCrash: it changes workload
	// outcomes, so only pressure-aware drivers name it.
	KindMemPressure
	// KindStoreQuota exhausts a domain's XenStore node quota at the
	// daemon: the domain's registry writes are refused with the typed
	// *xenstore.ErrQuotaExceeded (sites: xl/chaos create store
	// sections). Recovery: the
	// create path rolls the half-built domain back; the serving plane
	// sheds the request with RejectQuota. Opt-in.
	KindStoreQuota
	// KindRetryStorm makes a seeded fraction of rejected or timed-out
	// requests re-arrive after a client backoff (site: traffic.Serve's
	// completion handling), amplifying offered load exactly when the
	// control plane is already behind — the metastable-failure
	// feedback loop. Recovery: the admission-control defenses (retry
	// budgets, adaptive limits). Opt-in.
	KindRetryStorm

	numKinds
)

var kindNames = [...]string{
	"txn-conflict", "store-stall", "handshake-stall",
	"migration-drop", "daemon-crash", "host-failure",
	"toolstack-crash", "host-slow", "partition", "host-flap",
	"mem-pressure", "store-quota", "retry-storm",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// AllKinds lists every fault class (a Plan with no Kinds means all).
func AllKinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Window bounds when a plan is active in virtual time. The zero value
// is always active; To == 0 means open-ended.
type Window struct {
	From sim.Time
	To   sim.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool {
	if t < w.From {
		return false
	}
	return w.To == 0 || t <= w.To
}

// Plan describes an injection campaign: the per-opportunity fault
// probability, which fault classes participate (empty = all), and the
// virtual-time window in which injection is live. Sites, when
// non-empty, restricts FireSite to the named labels (Fire is
// unaffected) — tests use it to crash at one exact lifecycle step.
type Plan struct {
	Rate   float64
	Kinds  []Kind
	Window Window
	Sites  []string
}

// siteAllowed reports whether a labeled site participates.
func (p Plan) siteAllowed(site string) bool {
	if len(p.Sites) == 0 {
		return true
	}
	for _, s := range p.Sites {
		if s == site {
			return true
		}
	}
	return false
}

// optInKinds only participate when named explicitly in Plan.Kinds:
// KindToolstackCrash deliberately abandons an operation half-done, and
// the overload kinds (mem pressure, store quota, retry storms) change
// workload outcomes rather than just injecting latency. Keeping them
// out of the empty-Kinds mask means existing rate sweeps (ext-faults,
// ext-gray) keep their exact schedules and fault-oblivious drivers
// never see torn state or shed work.
const optInKinds = 1<<KindToolstackCrash |
	1<<KindMemPressure | 1<<KindStoreQuota | 1<<KindRetryStorm

// mask folds Kinds to a bitmask. Empty means "everything that is
// safe to survive in-line" — see optInKinds for the exclusions.
func (p Plan) mask() uint64 {
	if len(p.Kinds) == 0 {
		return (1<<numKinds - 1) &^ optInKinds
	}
	var m uint64
	for _, k := range p.Kinds {
		if k >= 0 && k < numKinds {
			m |= 1 << k
		}
	}
	return m
}

// Injector makes deterministic fault decisions against a Plan. The
// zero value and the nil pointer are both inert; construct live ones
// with New.
type Injector struct {
	clock *sim.Clock
	seed  uint64
	plan  Plan
	mask  uint64

	// opportunities / injected count per kind; Fire consumes one
	// opportunity per call whether or not it fires, keeping each
	// site's decision sequence independent of every other site.
	opportunities [numKinds]uint64
	injected      [numKinds]uint64
	aux           [numKinds]uint64 // side streams (jitter, fractions)

	// sites tracks per-label opportunity/injection counters for
	// FireSite callers. Lazily allocated; labeled sites share the
	// kind's single decision stream, so adding a label never perturbs
	// the schedule.
	sites map[string]*SiteStat
}

// New returns an injector for plan, keyed to clock and seed. Rates are
// clamped to [0,1].
func New(clock *sim.Clock, seed uint64, plan Plan) *Injector {
	if plan.Rate < 0 {
		plan.Rate = 0
	}
	if plan.Rate > 1 {
		plan.Rate = 1
	}
	return &Injector{clock: clock, seed: seed, plan: plan, mask: plan.mask()}
}

// mix is a splitmix64-style finalizer: uncorrelated 64-bit outputs for
// sequential inputs, which is all the decision streams need.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps a stream position to a uniform float64 in [0,1).
func (in *Injector) unit(k Kind, stream, n uint64) float64 {
	h := mix(in.seed ^ mix(uint64(k)+stream<<32) ^ mix(n))
	return float64(h>>11) / float64(1<<53)
}

// Fire reports whether the next opportunity at a site of kind k should
// fault, consuming one position of k's decision stream. Nil injectors
// never fire.
func (in *Injector) Fire(k Kind) bool {
	if in == nil || in.plan.Rate <= 0 || k < 0 || k >= numKinds {
		return false
	}
	if in.mask&(1<<k) == 0 {
		return false
	}
	n := in.opportunities[k]
	in.opportunities[k]++
	if !in.plan.Window.Contains(in.clock.Now()) {
		return false
	}
	if in.unit(k, 0, n) < in.plan.Rate {
		in.injected[k]++
		return true
	}
	return false
}

// Enabled reports whether kind k can ever fire under this injector's
// plan — the cheap gate callers use to skip bookkeeping (journal
// writes, crash-point checks) that only matters when the kind is
// live. It consumes no stream positions.
func (in *Injector) Enabled(k Kind) bool {
	if in == nil || in.plan.Rate <= 0 || k < 0 || k >= numKinds {
		return false
	}
	return in.mask&(1<<k) != 0
}

// SiteStat is one labeled injection site's counters.
type SiteStat struct {
	Site          string `json:"site"`
	Kind          string `json:"kind"`
	Opportunities uint64 `json:"opportunities"`
	Injected      uint64 `json:"injected"`
}

// FireSite is Fire with a site label: identical decision (same kind
// stream, same schedule), plus per-site opportunity/injection
// counters for reports. Sites that consult a disabled kind count
// nothing, so fault-free runs allocate nothing. A site excluded by
// Plan.Sites counts its opportunity but never fires (and consumes no
// stream position, so narrowing Sites is its own schedule).
func (in *Injector) FireSite(k Kind, site string) bool {
	if !in.Enabled(k) {
		return false
	}
	if in.sites == nil {
		in.sites = make(map[string]*SiteStat)
	}
	st := in.sites[site]
	if st == nil {
		st = &SiteStat{Site: site, Kind: k.String()}
		in.sites[site] = st
	}
	st.Opportunities++
	if !in.plan.siteAllowed(site) {
		return false
	}
	fired := in.Fire(k)
	if fired {
		st.Injected++
	}
	return fired
}

// SiteStats returns every labeled site's counters, sorted by site
// name for deterministic reports. Nil injectors return nil.
func (in *Injector) SiteStats() []SiteStat {
	if in == nil || len(in.sites) == 0 {
		return nil
	}
	out := make([]SiteStat, 0, len(in.sites))
	for _, st := range in.sites {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Jitter returns a deterministic duration in [0, max) from k's side
// stream — backoff randomization that stays reproducible per seed.
// Nil injectors return 0, so undisturbed runs stay byte-identical.
func (in *Injector) Jitter(k Kind, max sim.Duration) sim.Duration {
	if in == nil || max <= 0 {
		return 0
	}
	n := in.aux[k]
	in.aux[k]++
	return sim.Duration(in.unit(k, 1, n) * float64(max))
}

// Fraction returns a deterministic value in [0,1) from k's side stream
// (e.g. how far into a transfer a stream drop lands). Nil injectors
// return 0.
func (in *Injector) Fraction(k Kind) float64 {
	if in == nil {
		return 0
	}
	n := in.aux[k]
	in.aux[k]++
	return in.unit(k, 1, n)
}

// Injected reports how many faults of kind k have fired.
func (in *Injector) Injected(k Kind) uint64 {
	if in == nil || k < 0 || k >= numKinds {
		return 0
	}
	return in.injected[k]
}

// TotalInjected sums fired faults across all kinds.
func (in *Injector) TotalInjected() uint64 {
	if in == nil {
		return 0
	}
	var t uint64
	for _, v := range in.injected {
		t += v
	}
	return t
}

// Opportunities reports how many decisions kind k has consumed
// (diagnostics: injected/opportunities ≈ Rate over long runs).
func (in *Injector) Opportunities(k Kind) uint64 {
	if in == nil || k < 0 || k >= numKinds {
		return 0
	}
	return in.opportunities[k]
}
