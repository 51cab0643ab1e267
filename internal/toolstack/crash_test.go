package toolstack

import (
	"errors"
	"fmt"
	"testing"

	"lightvm/internal/devd"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/xenbus"
)

// crashEnv builds an environment whose injector fires
// KindToolstackCrash at exactly one labeled site (Plan.Sites filter;
// rate 1 so the first encounter fires).
func crashSiteEnv(t *testing.T, site string) (*Env, *faults.Injector) {
	t.Helper()
	clock := sim.NewClock()
	e := NewEnv(clock, sched.Xeon4)
	inj := faults.New(clock, 42, faults.Plan{
		Rate:  1,
		Kinds: []faults.Kind{faults.KindToolstackCrash},
		Sites: []string{site},
	})
	e.SetFaults(inj)
	return e, inj
}

// TestCrashPointsRecoverable kills the toolstack at every labeled
// crash point, one per subtest, and demands the same contract each
// time: the operation returns ErrToolstackCrash, the wreckage is
// visible to Fsck (at minimum a dirty intent journal), and one Scrub
// restores a state with zero violations, no leaked domains, and the
// crashed name reusable.
func TestCrashPointsRecoverable(t *testing.T) {
	cases := []struct {
		mode    Mode
		site    string
		destroy bool // crash the destroy instead of the create
	}{
		{ModeXL, "xl.create.begin", false},
		{ModeXL, "xl.create.hv", false},
		{ModeXL, "xl.create.store", false},
		{ModeXL, "xl.create.devices", false},
		{ModeXL, "xl.create.finalize", false},
		{ModeXL, "xl.destroy.begin", true},
		{ModeXL, "xl.destroy.devices", true},
		{ModeXL, "xl.destroy.hv", true},
		{ModeChaosXS, "chaos.create.begin", false},
		{ModeChaosXS, "chaos.create.hv", false},
		{ModeChaosXS, "chaos.create.devices", false},
		{ModeChaosXS, "chaos.create.store", false},
		{ModeChaosXS, "chaos.create.finalize", false},
		{ModeChaosXS, "chaos.destroy.devices", true},
		{ModeChaosNoXS, "chaos.create.hv", false},
		{ModeChaosNoXS, "chaos.create.finalize", false},
		{ModeChaosNoXS, "chaos.destroy.begin", true},
		{ModeChaosNoXS, "chaos.destroy.hv", true},
		{ModeLightVM, "pool.prepare.hv", false},
		{ModeLightVM, "pool.prepare.devices", false},
		{ModeLightVM, "pool.finalize", false},
		{ModeLightVM, "chaos.create.finalize", false},
		{ModeLightVM, "chaos.destroy.devices", true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.mode.String()+"/"+tc.site, func(t *testing.T) {
			e, _ := crashSiteEnv(t, tc.site)
			drv := e.ForMode(tc.mode)
			img := guest.Daytime()

			var crashErr error
			if tc.destroy {
				vm, err := drv.Create("victim", img)
				if err != nil {
					t.Fatalf("create before destroy-crash: %v", err)
				}
				crashErr = drv.Destroy(vm)
			} else {
				_, crashErr = drv.Create("victim", img)
			}
			if !errors.Is(crashErr, ErrToolstackCrash) {
				t.Fatalf("site %s: got %v, want ErrToolstackCrash", tc.site, crashErr)
			}
			// The crash left partial state behind; at minimum the intent
			// journal is dirty, so the checker must complain.
			if len(Fsck(e)) == 0 {
				t.Fatalf("site %s: crash left no visible wreckage", tc.site)
			}

			// Recovery: the restarted toolstack scrubs, then audits clean.
			e.SetFaults(nil)
			rep := e.Scrub(tc.mode)
			if rep.Journals == 0 {
				t.Fatalf("site %s: scrub replayed no intent", tc.site)
			}
			if v := Fsck(e); len(v) > 0 {
				t.Fatalf("site %s: %d violations after scrub, first: %s", tc.site, len(v), v[0])
			}
			if e.VMs() != 0 {
				t.Fatalf("site %s: %d VMs survived recovery", tc.site, e.VMs())
			}
			if got, want := e.HV.NumDomains(), len(e.Pool.ShellDomIDs()); got != want {
				t.Fatalf("site %s: %d domains for %d pooled shells", tc.site, got, want)
			}
			// A second scrub is a no-op (idempotence).
			rep2 := e.Scrub(tc.mode)
			if rep2.Journals != 0 || rep2.Orphans != 0 || rep2.Residue != 0 {
				t.Fatalf("site %s: second scrub found work: %+v", tc.site, rep2)
			}
			// The crashed name must be reusable.
			vm, err := drv.Create("victim", img)
			if err != nil {
				t.Fatalf("site %s: name unusable after recovery: %v", tc.site, err)
			}
			if err := drv.Destroy(vm); err != nil {
				t.Fatalf("site %s: destroy after recovery: %v", tc.site, err)
			}
		})
	}
}

// TestDestroyCrashRollsForward pins the recovery direction: a crash
// after the destroy intent was journaled leaves the domain running,
// and the scrubber finishes the teardown (roll-forward) rather than
// resurrecting the guest.
func TestDestroyCrashRollsForward(t *testing.T) {
	e, _ := crashSiteEnv(t, "chaos.destroy.hv")
	drv := e.ForMode(ModeChaosNoXS)
	vm, err := drv.Create("fwd", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Destroy(vm); !errors.Is(err, ErrToolstackCrash) {
		t.Fatalf("destroy: %v", err)
	}
	// The crash hit after device teardown but before the domain died.
	if n := e.HV.NumDomains(); n != 1 {
		t.Fatalf("domains before scrub = %d, want the half-destroyed 1", n)
	}
	e.SetFaults(nil)
	rep := e.Scrub(ModeChaosNoXS)
	if rep.Journals != 1 || rep.Orphans != 1 {
		t.Fatalf("scrub report %+v, want 1 journal + 1 orphan", rep)
	}
	if n := e.HV.NumDomains(); n != 0 {
		t.Fatalf("domains after scrub = %d", n)
	}
	if v := Fsck(e); len(v) > 0 {
		t.Fatalf("violations after roll-forward: %v", v)
	}
}

// TestCloneCrashRecoverable covers the clone path's crash points.
func TestCloneCrashRecoverable(t *testing.T) {
	for _, site := range []string{"clone.begin", "clone.hv", "clone.devices", "clone.finalize"} {
		site := site
		t.Run(site, func(t *testing.T) {
			e, _ := crashSiteEnv(t, site)
			drv := e.ForMode(ModeChaosNoXS)
			parent, err := drv.Create("parent", guest.Daytime())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.CloneVM(parent, "child"); !errors.Is(err, ErrToolstackCrash) {
				t.Fatalf("clone at %s: %v", site, err)
			}
			e.SetFaults(nil)
			e.Scrub(ModeChaosNoXS)
			if v := Fsck(e); len(v) > 0 {
				t.Fatalf("violations after scrub: %v", v)
			}
			// Parent unharmed, child name reusable.
			if e.VMs() != 1 {
				t.Fatalf("VMs = %d, want the parent alone", e.VMs())
			}
			child, err := e.CloneVM(parent, "child")
			if err != nil {
				t.Fatalf("re-clone: %v", err)
			}
			if err := drv.Destroy(child); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashChurnAlwaysScrubsClean is the property sweep: random crash
// points at a high rate over a create/destroy churn, across seeds and
// modes — every failure is the typed crash error, and scrubbing always
// converges to zero violations.
func TestCrashChurnAlwaysScrubsClean(t *testing.T) {
	for _, mode := range []Mode{ModeXL, ModeChaosXS, ModeChaosNoXS, ModeLightVM} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				clock := sim.NewClock()
				e := NewEnv(clock, sched.Xeon4)
				inj := faults.New(clock, seed, faults.Plan{
					Rate: 0.3, Kinds: []faults.Kind{faults.KindToolstackCrash},
				})
				e.SetFaults(inj)
				drv := e.ForMode(mode)
				for i := 0; i < 60; i++ {
					vm, err := drv.Create(fmt.Sprintf("c%d", i), guest.Daytime())
					if err == nil {
						err = drv.Destroy(vm)
					}
					if err != nil && !errors.Is(err, ErrToolstackCrash) {
						t.Fatalf("seed %d cycle %d: non-crash failure %v", seed, i, err)
					}
					if i%10 == 9 {
						e.Scrub(mode)
					}
				}
				e.Scrub(mode)
				if v := Fsck(e); len(v) > 0 {
					t.Fatalf("seed %d: %d violations after final scrub, first: %s", seed, len(v), v[0])
				}
			}
		})
	}
}

// TestPoolFinalizeCrashWithDaemonFailover is the nastiest interleaving
// the split toolstack has: a shell is taken from the pool and the
// toolstack dies inside device finalization; then the pool daemon
// itself crashes (draining and reaping its remaining shells) and vif
// hotplug degrades to the bash fallback. The taken shell must be
// reaped exactly once — by journal replay, not by the daemon's drain —
// and the fallback path must keep working.
func TestPoolFinalizeCrashWithDaemonFailover(t *testing.T) {
	clock := sim.NewClock()
	e := NewEnv(clock, sched.Xeon4)
	crashInj := faults.New(clock, 7, faults.Plan{
		Rate:  1,
		Kinds: []faults.Kind{faults.KindToolstackCrash},
		Sites: []string{"pool.finalize"},
	})
	e.SetFaults(crashInj)
	drv := e.ForMode(ModeLightVM)
	img := guest.Daytime()

	// Stock the pool (prepare sites are filtered, so this succeeds).
	e.Pool.Register(img, false)
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	stocked := len(e.Pool.ShellDomIDs())
	if stocked == 0 {
		t.Fatal("pool empty after replenish")
	}

	// 1. Toolstack dies finalizing a taken shell.
	if _, err := drv.Create("half", img); !errors.Is(err, ErrToolstackCrash) {
		t.Fatalf("create: %v", err)
	}
	taken := stocked - len(e.Pool.ShellDomIDs())
	if taken != 1 {
		t.Fatalf("shells taken = %d, want 1", taken)
	}

	// 2. The daemon crashes on the next Take: pool drained, shells
	// reaped, hotplug falls back to bash while the daemon restarts.
	daemonInj := faults.New(clock, 8, faults.Plan{
		Rate: 1, Kinds: []faults.Kind{faults.KindDaemonCrash},
	})
	e.SetFaults(daemonInj)
	domsBefore := e.HV.NumDomains()
	fo, ok := e.BackVif.Hotplug.(*devd.Failover)
	if !ok {
		t.Fatalf("failover shim not installed (hotplug is %T)", e.BackVif.Hotplug)
	}
	vm, err := drv.Create("fallback", img)
	if err != nil {
		t.Fatalf("fallback create: %v", err)
	}
	if !e.Pool.DaemonDown() {
		t.Fatal("daemon should be in its restart window")
	}
	if fo.Fallbacks == 0 {
		t.Fatal("vif setup did not fall back to the bash scripts while the daemon was down")
	}
	// Drain reaped the pooled shells but NOT the taken one: only the
	// half-finalized domain (journaled) plus the two live VMs' worth of
	// domains may remain.
	if got := e.HV.NumDomains(); got != domsBefore-(stocked-1)+1 {
		t.Fatalf("domains after drain = %d (before=%d stocked=%d)", got, domsBefore, stocked)
	}

	// 3. Recovery: journal replay reaps the taken shell exactly once.
	e.SetFaults(nil)
	rep := e.Scrub(ModeLightVM)
	if rep.Journals != 1 || rep.Orphans != 1 {
		t.Fatalf("scrub report %+v, want exactly 1 journal + 1 orphan (no double reap)", rep)
	}
	if v := Fsck(e); len(v) > 0 {
		t.Fatalf("violations after scrub: %v", v)
	}
	if e.VMs() != 1 {
		t.Fatalf("VMs = %d, want the fallback guest alone", e.VMs())
	}
	if err := drv.Destroy(vm); err != nil {
		t.Fatal(err)
	}
}

// TestDeviceFailureRollbackKeepsErrorIdentity drives the rewritten
// rollback paths (errors.Join instead of swallowed errors): a device
// handshake that times out must roll the domain back, leave zero
// violations, and surface the original typed error through the joined
// chain.
func TestDeviceFailureRollbackKeepsErrorIdentity(t *testing.T) {
	for _, mode := range []Mode{ModeXL, ModeChaosXS} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			clock := sim.NewClock()
			e := NewEnv(clock, sched.Xeon4)
			inj := faults.New(clock, 5, faults.Plan{
				Rate: 1, Kinds: []faults.Kind{faults.KindHandshakeStall},
			})
			e.SetFaults(inj)
			drv := e.ForMode(mode)
			_, err := drv.Create("stalled", guest.Daytime())
			if err == nil {
				t.Fatal("create survived a 100% handshake-drop plan")
			}
			if !errors.Is(err, xenbus.ErrDeviceTimeout) {
				t.Fatalf("joined rollback lost the typed error: %v", err)
			}
			if e.VMs() != 0 || e.HV.NumDomains() != 0 {
				t.Fatalf("rollback leaked: vms=%d doms=%d", e.VMs(), e.HV.NumDomains())
			}
			e.SetFaults(nil)
			if v := Fsck(e); len(v) > 0 {
				t.Fatalf("violations after rollback: %v", v)
			}
		})
	}
}
