package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/guest"
	"lightvm/internal/migrate"
	"lightvm/internal/toolstack"
)

// testHealthCfg is a tight heartbeat config so tests converge in a few
// hundred virtual milliseconds. FlapLimit < 0 disables the circuit
// breaker except where a test exercises it.
func testHealthCfg() HealthConfig {
	return HealthConfig{
		Period:       100 * time.Millisecond,
		SuspectAfter: 250 * time.Millisecond,
		DeadAfter:    600 * time.Millisecond,
		FlapLimit:    -1,
	}
}

// flap silences a host for d starting now, exactly as KindHostFlap
// would (white-box: tests drive the gray plane deterministically
// without an injector).
func flap(c *Cluster, host string, d time.Duration) {
	c.health.hosts[host].flapUntil = c.Clock.Now().Add(d)
}

// TestMoveRejectsFailedSource is the regression test for the failed-
// source hole: Move validated the destination via Host but read the
// source straight out of c.hosts, so a placement that still pointed at
// a dead machine (the gap between failure and failover) could start a
// migration from a corpse.
func TestMoveRejectsFailedSource(t *testing.T) {
	c := newCluster(t, 2)
	if _, _, err := c.Place(toolstack.ModeChaosNoXS, "vm0", guest.ClickOSFirewall()); err != nil {
		t.Fatal(err)
	}
	// Simulate the detection gap directly: the host has died but its
	// placements have not been swept yet.
	c.failed["cell-0"] = true
	if _, err := c.Move("vm0", "cell-1"); !errors.Is(err, ErrHostFailed) {
		t.Fatalf("move off a failed host: got %v, want ErrHostFailed", err)
	}
}

func TestHealthDetectsSilentHostAndFailsOver(t *testing.T) {
	for _, mode := range []toolstack.Mode{toolstack.ModeXL, toolstack.ModeLightVM} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, 2)
			c.EnableHealth(testHealthCfg(), nil)
			img := guest.Daytime()
			if _, host, err := c.Place(mode, "vm0", img); err != nil || host != "cell-0" {
				t.Fatalf("place vm0: host=%q err=%v", host, err)
			}
			if _, _, err := c.Place(mode, "vm1", img); err != nil {
				t.Fatal(err)
			}
			h0, err := c.Host("cell-0")
			if err != nil {
				t.Fatal(err)
			}

			flap(c, "cell-0", 2*time.Second)
			c.Clock.Sleep(time.Second)
			if got := c.Health("cell-0"); got != HealthDead {
				t.Fatalf("after 1s of silence: health = %v", got)
			}
			if host, _ := c.HostOf("vm0"); host != "cell-1" {
				t.Fatalf("vm0 not failed over: on %q", host)
			}
			rep := c.HealthReport()
			if rep.Failovers == 0 || rep.Recovered != 1 || len(rep.UnavailMS) != 1 {
				t.Fatalf("report after failover: %+v", rep)
			}
			if w := rep.UnavailMS[0]; w < 600 || w > 1200 {
				t.Fatalf("unavailability window %.1f ms, want ~[600,1200]", w)
			}
			// The stale copy is still on the silent host — that is the
			// split-brain hazard the fence exists for.
			if _, err := h0.Env.VM("vm0"); err != nil {
				t.Fatal("stale copy should survive until the host returns")
			}

			// The host returns; the monitor fences it before it rejoins.
			c.Clock.Sleep(1500 * time.Millisecond)
			if got := c.Health("cell-0"); got != HealthAlive {
				t.Fatalf("after return: health = %v", got)
			}
			if _, err := h0.Env.VM("vm0"); err == nil {
				t.Fatal("stale copy survived the fence scrub")
			}
			rep = c.HealthReport()
			if rep.DoubleStarts != 0 {
				t.Fatalf("double-starts: %d", rep.DoubleStarts)
			}
			if rep.StaleRejected == 0 {
				t.Fatal("fence did no work (StaleRejected = 0)")
			}
			if v := c.FsckLeases(); len(v) > 0 {
				t.Fatalf("lease fsck: %v", v)
			}
			if v := toolstack.Fsck(h0.Env); len(v) > 0 {
				t.Fatalf("fsck of returned host: %v", v)
			}
			// The returned host takes work again.
			if _, host, err := c.Place(mode, "vm2", img); err != nil || host != "cell-0" {
				t.Fatalf("place after return: host=%q err=%v", host, err)
			}
		})
	}
}

func TestSaturationBackpressureAndDeferredFailover(t *testing.T) {
	c := newCluster(t, 1)
	c.EnableHealth(testHealthCfg(), nil)
	mode, img := toolstack.ModeLightVM, guest.Daytime()
	if _, _, err := c.Place(mode, "vm0", img); err != nil {
		t.Fatal(err)
	}

	flap(c, "cell-0", 1500*time.Millisecond)
	c.Clock.Sleep(time.Second)
	if got := c.Health("cell-0"); got != HealthDead {
		t.Fatalf("health = %v", got)
	}
	// No healthy capacity: placement gets backpressure, not a pile-on.
	if _, _, err := c.Place(mode, "vm1", img); !errors.Is(err, ErrClusterSaturated) {
		t.Fatalf("place into saturated cluster: %v", err)
	}
	// Migrating off a dead-declared host is refused like a failed one.
	if _, err := c.Move("vm0", "cell-0"); !errors.Is(err, ErrHostFailed) {
		t.Fatalf("move off dead-declared host: %v", err)
	}
	rep := c.HealthReport()
	if rep.Deferred == 0 {
		t.Fatalf("failover should have been deferred on saturation: %+v", rep)
	}

	// The host returns still owning vm0 (nobody else could take it):
	// its lease is still current, so service resumes with no re-place
	// and no double-run.
	c.Clock.Sleep(time.Second)
	if got := c.Health("cell-0"); got != HealthAlive {
		t.Fatalf("after return: health = %v", got)
	}
	if host, _ := c.HostOf("vm0"); host != "cell-0" {
		t.Fatalf("vm0 moved while saturated: on %q", host)
	}
	h0, _ := c.Host("cell-0")
	vm, err := h0.Env.VM("vm0")
	if err != nil || !vm.Booted {
		t.Fatalf("vm0 should still be serving on its owner: %v", err)
	}
	rep = c.HealthReport()
	if rep.DoubleStarts != 0 || rep.Recovered != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if v := c.FsckLeases(); len(v) > 0 {
		t.Fatalf("lease fsck: %v", v)
	}
	if _, _, err := c.Place(mode, "vm1", img); err != nil {
		t.Fatalf("place after recovery: %v", err)
	}
}

func TestPlaceAndRebalanceAvoidSuspects(t *testing.T) {
	c := newCluster(t, 2)
	c.EnableHealth(testHealthCfg(), nil)
	mode, img := toolstack.ModeChaosNoXS, guest.ClickOSFirewall()
	c.health.hosts["cell-0"].state = HealthSuspect
	if _, host, err := c.Place(mode, "fw0", img); err != nil || host != "cell-1" {
		t.Fatalf("place with cell-0 suspect: host=%q err=%v", host, err)
	}
	if _, host, err := c.Place(mode, "fw1", img); err != nil || host != "cell-1" {
		t.Fatalf("second place: host=%q err=%v", host, err)
	}
	// With one candidate left, Rebalance has nothing safe to do.
	if moves, err := c.Rebalance(8); err != nil || moves != 0 {
		t.Fatalf("rebalance onto a suspect: moves=%d err=%v", moves, err)
	}
	c.health.hosts["cell-1"].state = HealthSuspect
	if _, _, err := c.Place(mode, "fw2", img); !errors.Is(err, ErrClusterSaturated) {
		t.Fatalf("place with every host suspect: %v", err)
	}
	// Backpressure is typed, not ErrNoHosts: capacity exists, it is
	// just degraded.
	if _, _, err := c.Place(mode, "fw2", img); errors.Is(err, ErrNoHosts) {
		t.Fatal("saturation misreported as an empty cluster")
	}
}

func TestFlapCircuitBreakerQuarantines(t *testing.T) {
	cfg := testHealthCfg()
	cfg.DeadAfter = time.Second // flaps stay below the dead threshold
	cfg.FlapLimit = 2
	c := newCluster(t, 2)
	c.EnableHealth(cfg, nil)

	flap(c, "cell-0", 350*time.Millisecond)
	c.Clock.Sleep(500 * time.Millisecond)
	if got := c.Health("cell-0"); got != HealthAlive {
		t.Fatalf("after first flap: health = %v", got)
	}
	flap(c, "cell-0", 350*time.Millisecond)
	c.Clock.Sleep(500 * time.Millisecond)
	if got := c.Health("cell-0"); got != HealthQuarantined {
		t.Fatalf("after second flap: health = %v", got)
	}
	if rep := c.HealthReport(); rep.Quarantined != 1 {
		t.Fatalf("report: %+v", rep)
	}
	// Quarantined hosts answer heartbeats but take no placements.
	c.Clock.Sleep(time.Second)
	if got := c.Health("cell-0"); got != HealthQuarantined {
		t.Fatalf("quarantine did not stick: %v", got)
	}
	if _, host, err := c.Place(toolstack.ModeChaosNoXS, "fw0", guest.ClickOSFirewall()); err != nil || host != "cell-1" {
		t.Fatalf("place with cell-0 quarantined: host=%q err=%v", host, err)
	}
}

// TestFailoverIdempotentWithConcurrentPlace interleaves failover sweeps
// with placements on the cluster's one goroutine: two placements arrive
// as clock events inside the first sweep's detection delay, two more
// between sweeps. Every lost VM must come back exactly once and never
// on the failed host, and a second Failover of the same lost set must
// be a no-op.
func TestFailoverIdempotentWithConcurrentPlace(t *testing.T) {
	c := newCluster(t, 3)
	mode, img := toolstack.ModeChaosNoXS, guest.ClickOSFirewall()
	place := func(name string) {
		if _, _, err := c.Place(mode, name, img); err != nil {
			t.Errorf("place %q: %v", name, err)
		}
	}
	for i := 0; i < 6; i++ {
		place(fmt.Sprintf("fw%d", i))
	}
	lost, err := c.FailHost("cell-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 2 {
		t.Fatalf("lost %d VMs, want 2", len(lost))
	}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("new%d", i)
		c.Clock.After(costs.HostFailureDetect*time.Duration(i)/3, func() { place(name) })
	}
	if _, rec, err := c.Failover(lost[:1]); err != nil || rec != 1 {
		t.Fatalf("partial failover: recovered=%d err=%v", rec, err)
	}
	place("new3")
	// The sweep over the whole set skips the VM already back.
	if _, rec, err := c.Failover(lost); err != nil || rec != len(lost)-1 {
		t.Fatalf("failover: recovered=%d err=%v", rec, err)
	}
	place("new4")
	// The six originals, the lost ones among them re-placed, plus four.
	if got, want := c.VMs(), 6+4; got != want {
		t.Fatalf("cluster runs %d VMs, want %d", got, want)
	}
	for _, l := range lost {
		host, err := c.HostOf(l.Name)
		if err != nil {
			t.Fatalf("lost VM %q not recovered: %v", l.Name, err)
		}
		if host == "cell-0" {
			t.Fatalf("lost VM %q re-placed on the failed host", l.Name)
		}
		copies := 0
		for _, name := range c.Hosts() {
			if h, err := c.Host(name); err == nil {
				if _, err := h.Env.VM(l.Name); err == nil {
					copies++
				}
			}
		}
		if copies != 1 {
			t.Fatalf("lost VM %q runs on %d live hosts, want 1", l.Name, copies)
		}
	}
	// Idempotent: everything already placed, nothing to redo.
	if _, rec, err := c.Failover(lost); err != nil || rec != 0 {
		t.Fatalf("second failover: recovered=%d err=%v", rec, err)
	}
}

func TestStaleLeaseFencedAtToolstackBoundary(t *testing.T) {
	c := newCluster(t, 2)
	c.EnableHealth(testHealthCfg(), nil)
	if _, host, err := c.Place(toolstack.ModeXL, "vm0", guest.Daytime()); err != nil || host != "cell-0" {
		t.Fatalf("place: host=%q err=%v", host, err)
	}
	h0, _ := c.Host("cell-0")
	h1, _ := c.Host("cell-1")

	flap(c, "cell-0", 2*time.Second)
	c.Clock.Sleep(time.Second) // dead declaration + failover to cell-1

	// The partitioned host, unaware, keeps acting on its copy: every
	// lifecycle path is fenced by the stale epoch.
	stale, err := h0.Env.VM("vm0")
	if err != nil {
		t.Fatal(err)
	}
	drv := h0.Env.ForMode(toolstack.ModeXL)
	if err := drv.Destroy(stale); !errors.Is(err, toolstack.ErrStaleLease) {
		t.Fatalf("stale destroy: %v", err)
	}
	if _, _, err := migrate.Migrate(h0.Env, h1.Env, stale); !errors.Is(err, toolstack.ErrStaleLease) {
		t.Fatalf("stale migrate: %v", err)
	}
	rep := c.HealthReport()
	if rep.StaleRejected < 2 {
		t.Fatalf("fence rejections: %+v", rep)
	}
	// On return the copy is scrubbed; both audits come back clean.
	c.Clock.Sleep(1500 * time.Millisecond)
	if _, err := h0.Env.VM("vm0"); err == nil {
		t.Fatal("stale copy survived the return scrub")
	}
	if rep := c.HealthReport(); rep.DoubleStarts != 0 {
		t.Fatalf("double-starts: %d", rep.DoubleStarts)
	}
	if v := c.FsckLeases(); len(v) > 0 {
		t.Fatalf("lease fsck: %v", v)
	}
	if v := toolstack.Fsck(h0.Env); len(v) > 0 {
		t.Fatalf("fsck: %v", v)
	}
}
