package experiments

import (
	"fmt"
	"time"

	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/traffic"
)

func init() {
	register("ext-overload", extOverload)
}

// overloadModes: the stock toolstack first — the paper's starting
// point is exactly the control plane that tips over soonest.
var overloadModes = []traffic.Mode{traffic.VMPerRequestXL, traffic.VMPerRequest}

// overloadMults sweeps offered load through and past the knee.
var overloadMults = []float64{0.5, 1, 2, 3}

// stormRate is the client retry probability when the storm is armed:
// 90% of rejected or timed-out requests come back after a backoff.
const stormRate = 0.9

// extOverload — metastable overload and its elimination (extension).
// Each cell drives one serving host open-loop through a three-phase
// timeline: pre-burst at 70% of the mode's calibrated capacity, a
// burst at mult× capacity, then back to 70% — the classic trigger
// shape for metastable failure. With the retry storm armed and the
// defenses off, the burst pushes the control-plane backlog past the
// client deadline; every late or shed request re-arrives after
// backoff, and the retry feedback sustains the collapse after the
// trigger ends: post-burst goodput stays at a fraction of pre-burst at
// the SAME fresh offered load. With the defenses on (AIMD admission on
// observed latency, a Finagle-style retry budget, two-priority
// shedding, brownout serving), the loop is broken: the limiter caps
// the backlog below the deadline so served work is good work, and the
// budget caps the retry inflow below the spare capacity.
//
// Goodput is accounted per phase as in-deadline responses over fresh
// offered requests, so the pre/post ratio compares equal offered
// loads; the burst column shows the trigger. Timescales are derived
// from each mode's measured capacity (EstimateCapacity), so "2×
// capacity" stresses xl and chaos identically in relative terms.
func extOverload(o Options) (Result, error) {
	hostsSim := o.scaled(4, 1)
	// The floor keeps the trigger decisive at test scales: the burst
	// must overshoot the deadline by a multiple, not a margin —
	// 0.25×640 arrivals at 2× capacity add ~80 per-request units of
	// backlog against a 30-unit deadline.
	reqPerHost := o.scaled(1600, 640)
	const preFrac, burstFrac = 0.30, 0.25

	// Calibrated per-request capacity per mode (deterministic — a
	// scratch host on its own clock).
	caps := make([]float64, len(overloadModes))
	for i, m := range overloadModes {
		c, err := traffic.EstimateCapacity(m, guest.Daytime())
		if err != nil {
			return Result{}, fmt.Errorf("ext-overload: calibrate %s: %w", m, err)
		}
		caps[i] = c
	}

	type cell struct{ mi, li, si, di int }
	var cells []cell
	for mi := range overloadModes {
		for li := range overloadMults {
			for _, si := range []int{0, 1} {
				for _, di := range []int{0, 1} {
					cells = append(cells, cell{mi, li, si, di})
				}
			}
		}
	}
	// Per-mode timescales, all multiples of the measured per-request
	// cost: the client deadline is 30 requests of backlog, the static
	// admission wall 3 deadlines out.
	perReq := func(mi int) time.Duration {
		return time.Duration(float64(time.Second) / caps[mi])
	}
	bounds := func(mi, li int) (t1, t2 time.Duration) {
		c := caps[mi]
		t1 = time.Duration(preFrac * float64(reqPerHost) / (0.7 * c) * float64(time.Second))
		t2 = t1 + time.Duration(burstFrac*float64(reqPerHost)/(overloadMults[li]*c)*float64(time.Second))
		return
	}

	merged, virtMS, err := o.fleet(len(cells), hostsSim, func(ci int) string {
		c := cells[ci]
		return fmt.Sprintf("ext-overload %s/x%.1f/storm%d/def%d", overloadModes[c.mi], overloadMults[c.li], c.si, c.di)
	}, func(ci int, _, hseed uint64) traffic.Config {
		c := cells[ci]
		cap := caps[c.mi]
		timeout := 30 * perReq(c.mi)
		t1, t2 := bounds(c.mi, c.li)
		var plan faults.Plan
		if c.si == 1 {
			plan = faults.Plan{Rate: stormRate, Kinds: []faults.Kind{faults.KindRetryStorm}}
		}
		var def traffic.Defense
		if c.di == 1 {
			def = traffic.Defense{
				AdaptiveAdmit: true,
				LatencyTarget: timeout / 3,
				RetryBudget:   0.2,
				PriorityShed:  true,
				Brownout:      true,
			}
		}
		return traffic.Config{
			Mode: overloadModes[c.mi],
			Seed: hseed,
			Arrivals: traffic.NewPhased(hseed, []traffic.PhaseRate{
				{Rate: 0.7 * cap, Until: t1},
				{Rate: overloadMults[c.li] * cap, Until: t2},
				{Rate: 0.7 * cap},
			}),
			Requests:     reqPerHost,
			MaxBacklog:   3 * timeout,
			Timeout:      timeout,
			RetryBackoff: timeout / 4,
			FaultPlan:    plan,
			Defense:      def,
			PhaseBounds:  []time.Duration{t1, t2},
		}
	})
	if err != nil {
		return Result{}, err
	}

	t := metrics.NewTable("Extension: overload metastability — retry storms sustain collapse without defenses; AIMD + retry budgets + brownout recover",
		"mode", "mult", "storm", "defense",
		"pre_good_pct", "burst_good_pct", "post_good_pct", "post_pre_ratio",
		"p99_ms", "reject_pct", "retries", "brownout_ms")
	goodFrac := func(p traffic.PhaseStats) float64 {
		if p.Fresh == 0 {
			return 0
		}
		return float64(p.Good) / float64(p.Fresh)
	}
	ratios := make(map[cell]float64, len(cells))
	p99s := make(map[cell]time.Duration, len(cells))
	for ci, c := range cells {
		m := merged[ci]
		pre, burst, post := goodFrac(m.Phases[0]), goodFrac(m.Phases[1]), goodFrac(m.Phases[2])
		ratio := 0.0
		if pre > 0 {
			ratio = post / pre
		}
		ratios[c] = ratio
		p99s[c] = m.Latency.P99()
		t.AddRow(float64(c.mi), overloadMults[c.li], float64(c.si), float64(c.di),
			100*pre, 100*burst, 100*post, ratio,
			ms(m.Latency.P99()), 100*m.RejectRate(),
			float64(m.Retries), ms(m.BrownoutTime))
	}

	// Headline gates on the storm-armed past-the-knee cells: the
	// defenses-off plane stays collapsed after the burst ends, the
	// defended plane recovers at equal offered load with a bounded tail.
	for mi := range overloadModes {
		timeout := 30 * perReq(mi)
		for li, mult := range overloadMults {
			if mult < 2 {
				continue
			}
			off := ratios[cell{mi, li, 1, 0}]
			on := ratios[cell{mi, li, 1, 1}]
			if off >= 0.5 {
				return Result{}, fmt.Errorf(
					"ext-overload: no metastable collapse at %s x%.0f storm-on defenses-off: post/pre goodput %.2f, want < 0.5",
					overloadModes[mi], mult, off)
			}
			if on < 0.95 {
				return Result{}, fmt.Errorf(
					"ext-overload: no recovery at %s x%.0f storm-on defenses-on: post/pre goodput %.2f, want >= 0.95",
					overloadModes[mi], mult, on)
			}
			if p := p99s[cell{mi, li, 1, 1}]; p > 2*timeout {
				return Result{}, fmt.Errorf(
					"ext-overload: defended tail unbounded at %s x%.0f: p99 %v past 2x the %v deadline",
					overloadModes[mi], mult, p, timeout)
			}
		}
	}

	t.Note("modes: 0=vm-xl (stock toolstack) 1=vm (chaos+xenstore); capacity calibrated per mode: xl %.1f req/s, chaos %.1f req/s",
		caps[0], caps[1])
	t.Note("phases: 30%% of requests at 0.7x capacity, 25%% at mult x capacity (the trigger), 45%% back at 0.7x; goodput = in-deadline responses / fresh offered per phase")
	t.Note("storm: %.0f%% of rejected/timed-out requests re-arrive after exponential backoff (max 4 attempts); defenses: AIMD admission + 0.2 retry budget + priority shed + brownout",
		100*float64(stormRate))
	t.Note("fleet sample: %d hosts/cell, %d fresh requests/host; deadline = 30x per-request cost, static admission wall 3 deadlines",
		hostsSim, reqPerHost)
	return Result{
		Paper:     "extension: retry storms make control-plane overload metastable; adaptive admission + retry budgets eliminate it",
		Table:     t,
		VirtualMS: virtMS,
		Serving:   summarizeServing(merged),
	}, nil
}
