package toolstack

import (
	"testing"

	"lightvm/internal/costs"
	"lightvm/internal/devd"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
)

// crashEnv returns an environment whose every pool Take crashes the
// daemon.
func crashEnv() (*Env, *sim.Clock) {
	clock := sim.NewClock()
	e := NewEnv(clock, sched.Machine{Name: "crash", Cores: 4, Dom0Cores: 1, MemoryGB: 32})
	e.SetFaults(faults.New(clock, 5, faults.Plan{Rate: 1, Kinds: []faults.Kind{faults.KindDaemonCrash}}))
	return e, clock
}

func TestPoolCrashFallsBackToColdPath(t *testing.T) {
	e, clock := crashEnv()
	drv := e.ForMode(ModeLightVM)

	// The first Take crashes the daemon; creation must still succeed
	// via the inline (cold) prepare path.
	vm, err := drv.Create("survivor", guest.Daytime())
	if err != nil {
		t.Fatalf("create during daemon crash: %v", err)
	}
	if !vm.Booted {
		t.Fatal("cold-path VM did not boot")
	}
	if e.Pool.Stats.Crashes != 1 {
		t.Fatalf("got %d crashes, want 1", e.Pool.Stats.Crashes)
	}
	if e.Pool.Stats.Misses != 1 {
		t.Fatalf("got %d misses, want 1 (daemon down)", e.Pool.Stats.Misses)
	}
	if !e.Pool.DaemonDown() {
		t.Fatal("daemon not down right after a crash")
	}

	// Replenish while down is a no-op: nobody is home to do the work.
	img := guest.Daytime()
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	if got := e.Pool.Available(img, false); got != 0 {
		t.Fatalf("dead daemon stocked %d shells", got)
	}

	// After the restart window the daemon is back and restocks.
	clock.Sleep(costs.PoolDaemonRestart)
	if e.Pool.DaemonDown() {
		t.Fatal("daemon still down after the restart window")
	}
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	if e.Pool.Available(img, false) == 0 {
		t.Fatal("restarted daemon did not restock the pool")
	}
}

func TestPoolCrashReapsShellsAndTheirDomains(t *testing.T) {
	clock := sim.NewClock()
	e := NewEnv(clock, sched.Machine{Name: "reap", Cores: 4, Dom0Cores: 1, MemoryGB: 32})
	// Stock the pool before attaching the fault plane.
	img := guest.Daytime()
	if s := e.Pool.Take(img, false); s != nil {
		t.Fatal("empty pool returned a shell")
	}
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	stocked := e.Pool.Available(img, false)
	if stocked == 0 {
		t.Fatal("pool did not stock")
	}
	if e.HV.NumDomains() != stocked {
		t.Fatalf("%d domains for %d shells", e.HV.NumDomains(), stocked)
	}

	e.SetFaults(faults.New(clock, 9, faults.Plan{Rate: 1, Kinds: []faults.Kind{faults.KindDaemonCrash}}))
	if s := e.Pool.Take(img, false); s != nil {
		t.Fatal("crashing Take returned a shell")
	}
	if e.Pool.Available(img, false) != 0 {
		t.Fatal("crash left shells in the pool")
	}
	if e.HV.NumDomains() != 0 {
		t.Fatalf("crash leaked %d shell domains", e.HV.NumDomains())
	}
}

func TestHotplugFailsOverToBashWhileDaemonDown(t *testing.T) {
	e, _ := crashEnv()
	// ModeChaosSplit: store-based device path through the vif backend,
	// whose hotplug shim must route to bash while the daemon is down.
	drv := e.ForMode(ModeChaosSplit)
	fo, ok := e.BackVif.Hotplug.(*devd.Failover)
	if !ok {
		t.Fatalf("vif hotplug is %T, want *devd.Failover under the fault plane", e.BackVif.Hotplug)
	}
	if _, err := drv.Create("split", guest.Daytime()); err != nil {
		t.Fatalf("create during daemon crash: %v", err)
	}
	if fo.Fallbacks == 0 {
		t.Fatal("no hotplug operation fell back to bash while the daemon was down")
	}
	if e.Bash.Invocations == 0 {
		t.Fatal("bash scripts never ran despite the fallback")
	}
}
