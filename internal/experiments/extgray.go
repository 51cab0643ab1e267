package experiments

import (
	"errors"
	"fmt"
	"time"

	"lightvm/internal/cluster"
	"lightvm/internal/costs"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

func init() {
	register("ext-gray", extGray)
}

// grayDetects sweeps the dead-declaration timeout: how long the
// monitor tolerates silence before fencing a member and re-placing its
// VMs. Short timeouts recover fast but misfire on hosts that are
// merely slow; long ones never misfire but leave VMs down longer.
var grayDetects = []time.Duration{
	400 * time.Millisecond,
	800 * time.Millisecond,
	1600 * time.Millisecond,
}

// grayRates is the per-opportunity probability that a host turns gray
// (slow, flapping, or partitioned) at each heartbeat pass. With ten
// passes a second, rate r means ~10r episodes per host per kind per
// second, each lasting 0.4–3.8 s — these values keep faults episodic
// rather than continuous. Rate 0 is the regression anchor: no monitor
// work beyond heartbeats, and it must report zero failovers of any
// kind.
var grayRates = []float64{0, 0.003, 0.01}

// grayCell is one (mode, detect, rate) measurement.
type grayCell struct {
	unavailP50, unavailP99 float64
	falsePositives         int
	doubleStarts           int
	failovers              int
	deferred               int
	quarantined            int
	staleRejected          uint64
	saturated              int
	fsckViolations         int
}

// extGray — gray-failure resilience (robustness extension; no paper
// figure). Hosts do not only fail cleanly: they get slow, they flap,
// they partition — and a naive monitor either double-runs a domain
// (split brain) or fails over hosts that were never down. This figure
// sweeps the detection timeout against the gray-fault rate on a
// four-host cluster under placement churn and reports what each policy
// point costs: per-VM unavailability p50/p99, false-positive
// failovers, and the double-start count — which the lease fence must
// hold at zero everywhere. Every cell ends with a cluster-wide lease
// fsck plus a per-host toolstack fsck, both of which must be clean.
func extGray(o Options) (Result, error) {
	n := o.scaled(30, 10)

	type point struct {
		detect time.Duration
		rate   float64
	}
	points := make([]point, 0, len(grayDetects)*len(grayRates))
	for _, d := range grayDetects {
		for _, r := range grayRates {
			points = append(points, point{d, r})
		}
	}

	grid, virtMS, err := pairGrid(o, len(points), func(m pairMode, pi int, seed uint64) (grayCell, float64, error) {
		p := points[pi]
		c, v, err := runGrayChurn(m.mode, p.detect, p.rate, seed, n)
		if err != nil {
			err = fmt.Errorf("ext-gray %s detect %v rate %.2f: %w", m.name, p.detect, p.rate, err)
		}
		return c, v, err
	})
	if err != nil {
		return Result{}, err
	}

	t := metrics.NewTable("Extension: gray-failure detection policy vs availability and safety",
		"detect_ms", "rate",
		"xl_unavail_p50_ms", "xl_unavail_p99_ms", "xl_falsepos", "xl_double",
		"chaos_unavail_p50_ms", "chaos_unavail_p99_ms", "chaos_falsepos", "chaos_double")
	for pi, p := range points {
		xl, ch := grid[0][pi], grid[1][pi]
		t.AddRow(float64(p.detect)/float64(time.Millisecond), p.rate,
			xl.unavailP50, xl.unavailP99, float64(xl.falsePositives), float64(xl.doubleStarts),
			ch.unavailP50, ch.unavailP99, float64(ch.falsePositives), float64(ch.doubleStarts))
	}
	for mi, m := range xlChaos {
		var agg grayCell
		for _, c := range grid[mi] {
			agg.failovers += c.failovers
			agg.deferred += c.deferred
			agg.quarantined += c.quarantined
			agg.staleRejected += c.staleRejected
			agg.saturated += c.saturated
			agg.doubleStarts += c.doubleStarts
			agg.fsckViolations += c.fsckViolations
		}
		t.Note("%s: %d failovers (%d deferred on saturation), %d quarantines, %d stale ops fenced, %d placements backpressured",
			m.name, agg.failovers, agg.deferred, agg.quarantined, agg.staleRejected, agg.saturated)
		if agg.doubleStarts > 0 || agg.fsckViolations > 0 {
			return Result{}, fmt.Errorf("ext-gray %s: %d double-starts, %d fsck violations (want 0/0)",
				m.name, agg.doubleStarts, agg.fsckViolations)
		}
	}
	t.Note("gray faults: slow hosts (cost dilation), flaps (silent outage + return), pairwise partitions")
	t.Note("safety: zero double-starts and zero lease/toolstack fsck violations in every cell (enforced)")
	return Result{
		Paper:     "robustness extension: gray-failure detection, lease-fenced failover (no paper figure)",
		Table:     t,
		VirtualMS: virtMS,
	}, nil
}

// runGrayChurn drives one (mode, detect, rate) cell: a four-host
// cluster placing and migrating VMs while the gray plane degrades
// hosts underneath the monitor. Heartbeat ticks run inside the
// cluster operations and the idle gaps between them (Clock.Sleep). It
// returns the cell and its final virtual time (ms).
func runGrayChurn(mode toolstack.Mode, detect time.Duration, rate float64, seed uint64, n int) (grayCell, float64, error) {
	clock := sim.NewClock()
	cl := cluster.New(clock)
	machine := sched.Machine{Name: "gray-host", Cores: 4, Dom0Cores: 1, MemoryGB: 32}
	const hosts = 4
	for i := 0; i < hosts; i++ {
		if _, err := cl.AddHost(fmt.Sprintf("cell-%d", i), machine, seed+uint64(i)); err != nil {
			return grayCell{}, 0, err
		}
	}
	var inj *faults.Injector
	if rate > 0 {
		inj = faults.New(clock, seed, faults.Plan{
			Rate:  rate,
			Kinds: []faults.Kind{faults.KindHostSlow, faults.KindPartition, faults.KindHostFlap},
		})
	}
	cl.EnableHealth(cluster.HealthConfig{
		Period:       costs.HeartbeatPeriod,
		SuspectAfter: detect / 2,
		DeadAfter:    detect,
		FlapLimit:    -1, // policy sweep: quarantine measured separately, never triggered here
	}, inj)

	img := guest.Daytime()
	cell := grayCell{}
	live := 0
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("vm%03d", i)
		_, _, err := cl.Place(mode, name, img)
		switch {
		case err == nil:
			live++
		case isGrayBackpressure(err):
			// Degraded cluster refused the placement — the typed
			// backpressure the policy is supposed to produce. Park the
			// request and retry after the next heartbeat interval.
			cell.saturated++
			cl.Clock.Sleep(costs.HeartbeatPeriod * 3)
			if _, _, rerr := cl.Place(mode, name, img); rerr == nil {
				live++
			} else if !isGrayBackpressure(rerr) {
				return grayCell{}, 0, rerr
			}
		default:
			return grayCell{}, 0, err
		}
		// Let heartbeats, detections and deferred-failover retries run
		// between arrivals.
		cl.Clock.Sleep(costs.HeartbeatPeriod * 2)

		// Handover churn: every fourth subscriber moves right after
		// arriving; gray refusals (suspect target, cut edge, fenced
		// source) are backpressure, not errors.
		if i%4 == 3 {
			if src, herr := cl.HostOf(name); herr == nil {
				dst := fmt.Sprintf("cell-%d", i%hosts)
				if dst != src {
					if _, merr := cl.Move(name, dst); merr != nil {
						if !isGrayBackpressure(merr) {
							return grayCell{}, 0, merr
						}
						cell.saturated++
					}
				}
			}
		}
		// And every sixth departs, exercising lease revocation.
		if i%6 == 5 && live > 1 {
			victim := fmt.Sprintf("vm%03d", i-3)
			if _, herr := cl.HostOf(victim); herr == nil {
				if derr := cl.Destroy(victim); derr != nil && !isGrayBackpressure(derr) {
					return grayCell{}, 0, derr
				}
				live--
			}
		}
	}

	// Close the injection window, then idle past the longest possible
	// episode (a max-jitter partition) plus detection, so every host
	// returns, fences its stale copies, and every deferred failover
	// resolves. Without closing the window first this cannot converge:
	// some host is always mid-episode.
	cl.EndGrayWindow()
	drain := costs.GrayPartitionMin + costs.GrayPartitionExtra + detect + 10*costs.HeartbeatPeriod
	cl.Clock.Sleep(drain)

	rep := cl.HealthReport()
	var unavail metrics.Series
	for _, w := range rep.UnavailMS {
		unavail.Add(w)
	}
	cell.unavailP50 = unavail.Percentile(50)
	cell.unavailP99 = unavail.Percentile(99)
	cell.falsePositives = rep.FalsePositives
	cell.doubleStarts = rep.DoubleStarts
	cell.failovers = rep.Failovers
	cell.deferred = rep.Deferred
	cell.quarantined = rep.Quarantined
	cell.staleRejected = rep.StaleRejected
	virtMS := clock.Now().Milliseconds()

	// Safety audit: cluster-wide lease invariants, then each host's
	// cross-layer toolstack fsck.
	cell.fsckViolations += len(cl.FsckLeases())
	for _, hn := range cl.Hosts() {
		h, err := cl.Host(hn)
		if err != nil {
			return grayCell{}, 0, err
		}
		cell.fsckViolations += len(toolstack.Fsck(h.Env))
	}
	if rate == 0 && cell.failovers != 0 {
		return grayCell{}, 0, fmt.Errorf("rate-0 cell saw %d failovers", cell.failovers)
	}
	return cell, virtMS, nil
}

// isGrayBackpressure classifies the typed refusals a degraded cluster
// is allowed to answer with: capacity exists but is quarantined or
// suspect (saturation), the target edge is cut, or the source is
// dead-declared / fenced.
func isGrayBackpressure(err error) bool {
	return errors.Is(err, cluster.ErrClusterSaturated) ||
		errors.Is(err, cluster.ErrPartitioned) ||
		errors.Is(err, cluster.ErrHostFailed) ||
		errors.Is(err, toolstack.ErrStaleLease)
}
