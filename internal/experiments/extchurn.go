package experiments

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

func init() {
	register("ext-churn", extChurn)
}

// churnRates sweeps the toolstack-crash probability per crash point;
// rate 0 anchors the undisturbed baseline.
var churnRates = []float64{0, 0.05, 0.10, 0.15, 0.20}

// churnScrubPeriods divides the cycle count into the xl scrub cadence:
// xl has no supervising daemon, so recovery runs as a periodic
// xenstore-cleanup chore rather than on every crash.
const churnScrubPeriods = 10

// churnCell is one (mode, rate) measurement.
type churnCell struct {
	p50, p99 float64
	residue  int     // stale store entries reclaimed by scrubs
	orphans  int     // leaked domains reaped
	scrubMS  float64 // mean virtual ms per recovery pass
	crashes  int
	sites    []faults.SiteStat
}

// extChurn — long-running create/destroy churn with toolstack crashes
// (robustness extension; the paper's observation that xl leaves
// residual XenStore entries as thousands of domains come and go,
// §4.2/Fig. 5, replayed as a crash-consistency experiment). Each cycle
// creates and destroys one uniquely-named guest while
// faults.KindToolstackCrash kills the toolstack at labeled crash
// points, leaving half-built state behind. Both stacks journal their
// intent and recover by scrubbing, but the mechanism differs: chaos is
// supervised, so its restarted daemon replays the (kernel-resident,
// one-ioctl) noxs journal immediately after every crash; xl recovery
// is a periodic whole-store scan that pays a store round trip per node
// it walks. The residue, latency and scrub-cost asymmetry in the table
// emerges from those mechanisms, not from tuned constants. Every cell
// must end with zero Fsck violations after its final scrub — the
// crash-consistency guarantee is enforced, not sampled.
func extChurn(o Options) (Result, error) {
	cycles := o.scaled(10000, 50)
	grid, virtMS, err := pairGrid(o, len(churnRates), func(m pairMode, ri int, seed uint64) (churnCell, float64, error) {
		c, v, err := runCrashChurn(m.mode, churnRates[ri], seed, cycles)
		if err != nil {
			err = fmt.Errorf("ext-churn %s rate %.2f: %w", m.name, churnRates[ri], err)
		}
		return c, v, err
	})
	if err != nil {
		return Result{}, err
	}

	t := metrics.NewTable("Extension: toolstack-crash churn — residue, latency and scrub cost",
		"rate",
		"xl_p50_ms", "xl_p99_ms", "xl_residue", "xl_scrub_pass_ms",
		"chaos_p50_ms", "chaos_p99_ms", "chaos_residue", "chaos_scrub_pass_ms")
	for ri, rate := range churnRates {
		xl, ch := grid[0][ri], grid[1][ri]
		t.AddRow(rate,
			xl.p50, xl.p99, float64(xl.residue), xl.scrubMS,
			ch.p50, ch.p99, float64(ch.residue), ch.scrubMS)
	}
	siteAgg := map[string]*faults.SiteStat{}
	for mi, m := range xlChaos {
		crashes, orphans, residue := 0, 0, 0
		for _, c := range grid[mi] {
			crashes += c.crashes
			orphans += c.orphans
			residue += c.residue
			for _, st := range c.sites {
				agg := siteAgg[st.Site]
				if agg == nil {
					siteAgg[st.Site] = &faults.SiteStat{Site: st.Site, Kind: st.Kind,
						Opportunities: st.Opportunities, Injected: st.Injected}
					continue
				}
				agg.Opportunities += st.Opportunities
				agg.Injected += st.Injected
			}
		}
		t.Note("%s: %d toolstack crashes over the sweep; scrubs reaped %d leaked domains and %d stale store entries",
			m.name, crashes, orphans, residue)
	}
	t.Note("%d create/destroy cycles per cell; chaos scrubs after every crash (supervised daemon), xl scrubs every %d cycles (periodic store cleanup)",
		cycles, cycles/churnScrubPeriods)
	t.Note("residue counts store litter only: even crash-free xl sheds ~1 stale entry per cycle (the §4.2 residual-entry behavior); chaos keeps no store, so its residue is identically 0")
	t.Note("scrub_pass_ms is the mean cost of one recovery pass: xl's whole-store scan grows with the litter, chaos replays a kernel journal in O(per-domain)")
	t.Note("every cell verified: zero cross-layer Fsck violations after its final scrub")
	return Result{
		Paper:      "robustness extension: crash-consistent lifecycle under long-running churn (§4.2's residual-entry observation)",
		Table:      t,
		VirtualMS:  virtMS,
		CrashSites: flattenSiteAgg(siteAgg),
	}, nil
}

// flattenSiteAgg folds the per-site aggregation to the sorted slice
// Result carries (faults.SiteStat order: by site label).
func flattenSiteAgg(m map[string]*faults.SiteStat) []faults.SiteStat {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]faults.SiteStat, 0, len(keys))
	for _, k := range keys {
		out = append(out, *m[k])
	}
	return out
}

// runCrashChurn drives one (mode, rate) cell on a single host. It
// returns the cell and its final virtual time (ms).
func runCrashChurn(mode toolstack.Mode, rate float64, seed uint64, cycles int) (churnCell, float64, error) {
	clock := sim.NewClock()
	e := toolstack.NewEnv(clock, sched.Machine{Name: "churn-host", Cores: 4, Dom0Cores: 1, MemoryGB: 32})
	var inj *faults.Injector
	if rate > 0 {
		inj = faults.New(clock, seed, faults.Plan{Rate: rate, Kinds: []faults.Kind{faults.KindToolstackCrash}})
	}
	e.SetFaults(inj)
	drv := e.ForMode(mode)
	img := guest.Daytime()

	var creates metrics.Series
	cell := churnCell{}
	var scrubbed toolstack.ScrubReport
	passes := 0
	scrub := func() {
		scrubbed.Add(e.Scrub(mode))
		passes++
	}
	// crashed records an injected crash and runs the mode's recovery
	// policy: the supervised chaos daemon scrubs immediately; xl waits
	// for its periodic cleanup chore.
	crashed := func() {
		cell.crashes++
		if mode != toolstack.ModeXL {
			scrub()
		}
	}
	scrubEvery := cycles / churnScrubPeriods
	if scrubEvery < 1 {
		scrubEvery = 1
	}

	for i := 0; i < cycles; i++ {
		name := fmt.Sprintf("vm%05d", i)
		vm, err := drv.Create(name, img)
		switch {
		case err == nil:
			creates.AddDuration(vm.CreateTime + vm.BootTime)
			if derr := drv.Destroy(vm); derr != nil {
				if !errorsIsCrash(derr) {
					return churnCell{}, 0, derr
				}
				crashed()
			}
		case errorsIsCrash(err):
			crashed()
		default:
			return churnCell{}, 0, err
		}
		if mode.UsesSplit() {
			if rerr := e.Pool.Replenish(); rerr != nil {
				if !errorsIsCrash(rerr) {
					return churnCell{}, 0, rerr
				}
				crashed()
			}
		}
		if mode == toolstack.ModeXL && (i+1)%scrubEvery == 0 {
			scrub()
		}
	}
	// Final recovery pass, then the enforced invariant audit.
	scrub()
	if v := toolstack.Fsck(e); len(v) > 0 {
		return churnCell{}, 0, fmt.Errorf("churn left %d violations after scrub (first: %s)", len(v), v[0])
	}

	cell.p50 = creates.Percentile(50)
	cell.p99 = creates.Percentile(99)
	cell.residue = scrubbed.Residue
	cell.orphans = scrubbed.Orphans
	// Mean per recovery pass: this is where the mechanism asymmetry
	// shows — xl's pass is a whole-store scan whose cost tracks the
	// litter, chaos's is one journal ioctl plus per-domain teardown.
	cell.scrubMS = float64(scrubbed.Duration) / float64(time.Millisecond) / float64(passes)
	cell.sites = inj.SiteStats()
	return cell, clock.Now().Milliseconds(), nil
}

// errorsIsCrash matches the injected toolstack-crash sentinel.
func errorsIsCrash(err error) bool {
	return errors.Is(err, toolstack.ErrToolstackCrash)
}
