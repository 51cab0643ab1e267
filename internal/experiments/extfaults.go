package experiments

import (
	"errors"
	"fmt"
	"time"

	"lightvm/internal/cluster"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
	"lightvm/internal/xenbus"
	"lightvm/internal/xenstore"
)

func init() {
	register("ext-faults", extFaults)
}

// faultRates is the injection-rate sweep: rate 0 doubles as the
// regression anchor (it must reproduce the undisturbed control plane).
var faultRates = []float64{0, 0.04, 0.08, 0.12, 0.16, 0.20}

// faultCell is one (mode, rate) measurement.
type faultCell struct {
	createP50, createP99 float64
	migP50, migP99       float64
	avail                float64
	injected             uint64
	recoveries           int
	recoveryMS           float64
}

// extFaults — deterministic fault injection against both control
// planes (robustness extension; the paper's §7.1 edge scenario run on a
// bad day). A two-host cluster churns through creations and handover
// migrations while the fault plane injects XenStore transaction
// conflicts, store stalls, lost xenbus handshake events, migration
// stream drops, pool-daemon crashes and whole-host failures at a swept
// rate. Every fault exercises a recovery path — txn backoff/retry,
// device re-attach, stream resume (noxs) or rollback (xl), cold-path
// fallback, cluster failover — and the table reports what that
// recovery costs: creation and migration p50/p99 plus VM availability.
func extFaults(o Options) (Result, error) {
	n := o.scaled(40, 12)
	grid, virtMS, err := pairGrid(o, len(faultRates), func(m pairMode, ri int, seed uint64) (faultCell, float64, error) {
		c, v, err := runFaultChurn(m.mode, faultRates[ri], seed, n)
		if err != nil {
			err = fmt.Errorf("ext-faults %s rate %.2f: %w", m.name, faultRates[ri], err)
		}
		return c, v, err
	})
	if err != nil {
		return Result{}, err
	}

	t := metrics.NewTable("Extension: fault rate vs control-plane latency and availability",
		"rate",
		"xl_create_p50_ms", "xl_create_p99_ms", "xl_mig_p50_ms", "xl_mig_p99_ms", "xl_avail_pct",
		"chaos_create_p50_ms", "chaos_create_p99_ms", "chaos_mig_p50_ms", "chaos_mig_p99_ms", "chaos_avail_pct")
	for ri, rate := range faultRates {
		xl, ch := grid[0][ri], grid[1][ri]
		t.AddRow(rate,
			xl.createP50, xl.createP99, xl.migP50, xl.migP99, xl.avail,
			ch.createP50, ch.createP99, ch.migP50, ch.migP99, ch.avail)
	}
	for mi, m := range xlChaos {
		var injected uint64
		recoveries := 0
		recoveryMS := 0.0
		for _, c := range grid[mi] {
			injected += c.injected
			recoveries += c.recoveries
			recoveryMS += c.recoveryMS
		}
		mean := 0.0
		if recoveries > 0 {
			mean = recoveryMS / float64(recoveries)
		}
		t.Note("%s: %d faults injected across the sweep, %d host failovers (mean recovery %.1f ms)",
			m.name, injected, recoveries, mean)
	}
	t.Note("faults: store txn conflicts + stalls, lost xenbus handshakes, migration stream drops, pool-daemon crashes, host failures")
	t.Note("recovery: txn backoff/retry, device re-attach, stream resume (chaos) or rollback (xl), cold-path fallback, §7.1 failover")
	return Result{
		Paper:     "robustness extension: control-plane recovery under injected faults (no paper figure)",
		Table:     t,
		VirtualMS: virtMS,
	}, nil
}

// runFaultChurn drives one (mode, rate) cell: a two-host cluster under
// a create/migrate churn, with host failures and replacements along
// the way. Availability counts every fault-caused outage against the
// total operations attempted: failed creations, aborted migrations,
// and VMs lost to a dead host (recovered or not, they were down). It
// returns the cell and its final virtual time (ms).
func runFaultChurn(mode toolstack.Mode, rate float64, seed uint64, n int) (faultCell, float64, error) {
	clock := sim.NewClock()
	cl := cluster.New(clock)
	machine := sched.Machine{Name: "fault-host", Cores: 4, Dom0Cores: 1, MemoryGB: 32}

	var inj *faults.Injector
	if rate > 0 {
		inj = faults.New(clock, seed, faults.Plan{Rate: rate})
	}
	addHost := func(name string, hostSeed uint64) error {
		h, err := cl.AddHost(name, machine, hostSeed)
		if err != nil {
			return err
		}
		h.Env.SetFaults(inj)
		return nil
	}
	if err := addHost("h0", seed); err != nil {
		return faultCell{}, 0, err
	}
	if err := addHost("h1", seed+1); err != nil {
		return faultCell{}, 0, err
	}
	live := func() []string {
		out := make([]string, 0, 2)
		for _, hn := range cl.Hosts() {
			if !cl.Failed(hn) {
				out = append(out, hn)
			}
		}
		return out
	}

	img := guest.Daytime()
	var creates, migs metrics.Series
	totalOps, failedOps := 0, 0
	recoveries := 0
	var recoveryTotal time.Duration
	nextHost := 2

	for i := 0; i < n; i++ {
		name := fmt.Sprintf("vm%03d", i)
		totalOps++
		vm, _, err := cl.Place(mode, name, img)
		placed := err == nil
		if placed {
			creates.AddDuration(vm.CreateTime + vm.BootTime)
		} else {
			// A typed failure (ErrTxnRetriesExhausted, ErrDeviceTimeout,
			// resource exhaustion) — the VM never came up.
			failedOps++
		}
		// The pool daemon's background beat (split modes only; a no-op
		// for xl, and for a crashed daemon until it restarts).
		for _, hn := range live() {
			if h, herr := cl.Host(hn); herr == nil {
				if rerr := h.Replenish(); rerr != nil {
					return faultCell{}, 0, rerr
				}
			}
		}

		// Handover migration: every third subscriber moves to the other
		// host right after arriving (§7.1 churn).
		if placed && i%3 == 2 {
			srcName, herr := cl.HostOf(name)
			if herr == nil {
				dstName := ""
				for _, hn := range live() {
					if hn != srcName {
						dstName = hn
						break
					}
				}
				if dstName != "" {
					totalOps++
					if d, merr := cl.Move(name, dstName); merr != nil {
						failedOps++ // rolled back: source still runs, but the handover failed
					} else {
						migs.AddDuration(d)
					}
				}
			}
		}

		// Whole-host failure: the oldest live host dies, survivors absorb
		// its VMs via §7.1 placement, and a cold replacement joins.
		if inj.Fire(faults.KindHostFailure) {
			victims := live()
			if len(victims) > 1 {
				lost, ferr := cl.FailHost(victims[0])
				if ferr != nil {
					return faultCell{}, 0, ferr
				}
				// Every lost VM was down regardless of recovery outcome.
				totalOps += len(lost)
				failedOps += len(lost)
				// A cold spare joins before the failover sweep, so lost
				// VMs land on fresh capacity (xl leaves migrated-away
				// names registered in the source store, so a survivor
				// that once hosted a VM would reject its name).
				if err := addHost(fmt.Sprintf("h%d", nextHost), seed+uint64(nextHost)); err != nil {
					return faultCell{}, 0, err
				}
				nextHost++
				d, _, foErr := cl.Failover(lost)
				recoveries++
				recoveryTotal += d
				// A re-placement that a fault defeated leaves the rest of
				// the lost VMs down; they are already counted as failed.
				if foErr != nil && !isFaultErr(foErr) {
					return faultCell{}, 0, foErr
				}
			}
		}
	}

	cell := faultCell{
		createP50:  creates.Percentile(50),
		createP99:  creates.Percentile(99),
		migP50:     migs.Percentile(50),
		migP99:     migs.Percentile(99),
		avail:      100 * (1 - float64(failedOps)/float64(totalOps)),
		recoveries: recoveries,
		recoveryMS: ms(recoveryTotal),
	}
	if inj != nil {
		cell.injected = inj.TotalInjected()
	}
	return cell, clock.Now().Milliseconds(), nil
}

// isFaultErr reports whether err is a typed fault-plane outcome: a
// device handshake or store transaction that exhausted its recovery.
func isFaultErr(err error) bool {
	return errors.Is(err, xenbus.ErrDeviceTimeout) || errors.Is(err, xenstore.ErrTxnRetriesExhausted)
}
