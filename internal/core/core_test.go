package core

import (
	"fmt"
	"testing"
	"time"

	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

func newHost(t *testing.T) *Host {
	t.Helper()
	h, err := NewHost(sched.Xeon4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHostLifecycle(t *testing.T) {
	h := newHost(t)
	vm, err := h.CreateVM(toolstack.ModeChaosNoXS, "g1", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if h.VMs() != 1 {
		t.Fatalf("VMs = %d", h.VMs())
	}
	// The vif landed on the Dom0 bridge.
	if h.Env.Bridge.Ports() != 1 {
		t.Fatalf("bridge ports = %d", h.Env.Bridge.Ports())
	}
	if err := h.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
	if h.VMs() != 0 || h.Env.Bridge.Ports() != 0 {
		t.Fatalf("teardown incomplete: vms=%d ports=%d", h.VMs(), h.Env.Bridge.Ports())
	}
}

// TestVifPastFirstDeviceLeavesWithGuest creates store-path guests whose
// vif is device 1 (after a console): the backend must attach the port
// under the vif's own index, so destroy finds and detaches it.
func TestVifPastFirstDeviceLeavesWithGuest(t *testing.T) {
	for _, mode := range []toolstack.Mode{toolstack.ModeXL, toolstack.ModeChaosXS} {
		h := newHost(t)
		img := guest.Daytime()
		img.Devices = append([]guest.DeviceSpec{{Kind: hv.DevConsole}}, img.Devices...)
		vm, err := h.CreateVM(mode, "v1", img)
		if err != nil {
			t.Fatal(err)
		}
		if n := h.Env.Bridge.Ports(); n != 1 {
			t.Fatalf("%s: %d bridge ports after create, want 1", mode, n)
		}
		if err := h.DestroyVM(vm); err != nil {
			t.Fatal(err)
		}
		if n := h.Env.Bridge.Ports(); n != 0 {
			t.Fatalf("%s: %d bridge ports after destroy, want 0", mode, n)
		}
		if f := h.Env.BackVif.HotplugFailures; f != 0 {
			t.Fatalf("%s: %d hotplug failures", mode, f)
		}
	}
}

// raceEnabled is set by race_test.go: the race detector's
// instrumentation allocates on its own, so allocation budgets do not
// hold under it.
var raceEnabled bool

// TestHostLifecycleAllocs pins the heap objects one create+destroy of a
// daytime guest costs through the host in chaos[NoXS]: every networked
// guest pays them, so per-guest garbage that creeps back in fails here.
func TestHostLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const runs = 50
	const budget = 25
	h := newHost(t)
	img := guest.Daytime()
	names := make([]string, runs+1) // AllocsPerRun adds one warm-up run
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		vm, err := h.CreateVM(toolstack.ModeChaosNoXS, names[i], img)
		i++
		if err != nil {
			t.Fatal(err)
		}
		if err := h.DestroyVM(vm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("CreateVM+DestroyVM allocates %.1f objects, budget %d", allocs, budget)
	}
}

func TestDriverCached(t *testing.T) {
	h := newHost(t)
	if h.Driver(toolstack.ModeXL) != h.Driver(toolstack.ModeXL) {
		t.Fatal("driver not cached")
	}
}

func TestEnsureFlavorStocksPool(t *testing.T) {
	h := newHost(t)
	if err := h.EnsureFlavor(guest.Daytime(), toolstack.ModeLightVM); err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(toolstack.ModeLightVM, "fast", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	total := vm.CreateTime + vm.BootTime
	if total > 8*time.Millisecond {
		t.Fatalf("LightVM create+boot with stocked pool = %v", total)
	}
	// No pool miss beyond the initial flavor registration.
	if h.Env.Pool.Stats.Misses > 1 {
		t.Fatalf("misses = %d", h.Env.Pool.Stats.Misses)
	}
}

func TestVMsAndContainersShareMemoryBudget(t *testing.T) {
	h := newHost(t)
	before := h.MemoryUsedBytes()
	if _, err := h.CreateVM(toolstack.ModeChaosNoXS, "vm", guest.Minipython()); err != nil {
		t.Fatal(err)
	}
	afterVM := h.MemoryUsedBytes()
	if afterVM <= before {
		t.Fatal("VM consumed no memory")
	}
	if _, err := h.Docker.Run("micropython"); err != nil {
		t.Fatal(err)
	}
	if h.MemoryUsedBytes() <= afterVM {
		t.Fatal("container consumed no memory")
	}
	if _, err := h.Procs.Spawn(1 << 20); err != nil {
		t.Fatal(err)
	}
}

func TestCPUUtilizationGrowsWithDebianGuests(t *testing.T) {
	h, err := NewHost(sched.Machine{Name: "big", Cores: 4, Dom0Cores: 1, MemoryGB: 512}, 1)
	if err != nil {
		t.Fatal(err)
	}
	u0 := h.CPUUtilization()
	for i := 0; i < 50; i++ {
		if _, err := h.CreateVM(toolstack.ModeChaosNoXS, fmt.Sprintf("d%d", i), guest.DebianMinimal()); err != nil {
			t.Fatal(err)
		}
	}
	if h.CPUUtilization() <= u0 {
		t.Fatal("utilization flat with 50 Debian guests")
	}
}

// bridgeModes are the toolstack modes a checkpoint leaves through: the
// store path (xl, chaos[XS]) and noxs.
var bridgeModes = []toolstack.Mode{toolstack.ModeXL, toolstack.ModeChaosXS, toolstack.ModeChaosNoXS}

func TestSaveRestoreThroughHost(t *testing.T) {
	for _, mode := range bridgeModes {
		h := newHost(t)
		vm, err := h.CreateVM(mode, "ck", guest.Daytime())
		if err != nil {
			t.Fatal(err)
		}
		cp, saveT, err := h.Save(vm)
		if err != nil {
			t.Fatal(err)
		}
		// The saved guest's vif left the bridge with it.
		if n := h.Env.Bridge.Ports(); n != 0 {
			t.Fatalf("%s: %d bridge ports after save, want 0", mode, n)
		}
		restored, restT, err := h.Restore(cp)
		if err != nil {
			t.Fatal(err)
		}
		if saveT <= 0 || restT <= 0 || restored.Name != "ck" {
			t.Fatalf("%s: save=%v restore=%v vm=%+v", mode, saveT, restT, restored)
		}
		if n := h.Env.Bridge.Ports(); n != 1 {
			t.Fatalf("%s: %d bridge ports after restore, want 1", mode, n)
		}
	}
}

func TestMigrateBetweenHosts(t *testing.T) {
	for _, mode := range bridgeModes {
		clock := sim.NewClock()
		src, err := NewHostOn(clock, sched.Xeon4, 1)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := NewHostOn(clock, sched.Xeon4, 2)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := src.CreateVM(mode, "m", guest.Daytime())
		if err != nil {
			t.Fatal(err)
		}
		moved, d, err := src.MigrateTo(dst, vm)
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 || moved.Name != "m" || src.VMs() != 0 || dst.VMs() != 1 {
			t.Fatalf("%s: migration wrong: d=%v src=%d dst=%d", mode, d, src.VMs(), dst.VMs())
		}
		// The vif moved with the guest: none is left on the source.
		if s, d := src.Env.Bridge.Ports(), dst.Env.Bridge.Ports(); s != 0 || d != 1 {
			t.Fatalf("%s: bridge ports src=%d dst=%d, want 0 and 1", mode, s, d)
		}
	}
}

func TestGuestTable(t *testing.T) {
	rows := GuestTable()
	if len(rows) < 10 {
		t.Fatalf("guest table has %d rows", len(rows))
	}
	for _, r := range rows {
		if r.ImageMB <= 0 || r.RuntimeMB <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestDeterministicAcrossHosts(t *testing.T) {
	run := func() (time.Duration, uint64) {
		h, err := NewHost(sched.Xeon4, 42)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := h.CreateVM(toolstack.ModeChaosXS, "d", guest.TinyxNoop())
		if err != nil {
			t.Fatal(err)
		}
		return vm.CreateTime + vm.BootTime, h.MemoryUsedBytes()
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 || m1 != m2 {
		t.Fatalf("non-deterministic: %v/%v %d/%d", t1, t2, m1, m2)
	}
}

func TestTraceRecordsLifecycle(t *testing.T) {
	h := newHost(t)
	log := h.EnableTrace(0)
	vm, err := h.CreateVM(toolstack.ModeChaosNoXS, "traced", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := h.Save(vm)
	if err != nil {
		t.Fatal(err)
	}
	vm2, _, err := h.Restore(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyVM(vm2); err != nil {
		t.Fatal(err)
	}
	if len(log.Filter("toolstack", "create")) != 1 {
		t.Fatalf("create events = %d", len(log.Filter("toolstack", "create")))
	}
	if len(log.Filter("migrate", "save")) != 1 || len(log.Filter("migrate", "restore")) != 1 {
		t.Fatal("checkpoint events missing")
	}
	if len(log.Filter("toolstack", "destroy")) != 1 {
		t.Fatal("destroy event missing")
	}
	// Timestamps are monotone.
	evs := log.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("trace out of order")
		}
	}
}

func TestPauseUnpause(t *testing.T) {
	h, err := NewHost(sched.Machine{Name: "p", Cores: 4, Dom0Cores: 1, MemoryGB: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var vms []*toolstack.VM
	for i := 0; i < 30; i++ {
		vm, err := h.CreateVM(toolstack.ModeChaosNoXS, fmt.Sprintf("d%d", i), guest.DebianMinimal())
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	busy := h.CPUUtilization()
	memBusy := h.MemoryUsedBytes()
	for _, vm := range vms {
		if err := h.PauseVM(vm); err != nil {
			t.Fatal(err)
		}
	}
	// Frozen guests burn no CPU but keep their memory (the Lambda
	// freeze semantics of §2).
	if got := h.CPUUtilization(); got >= busy {
		t.Fatalf("utilization after pause = %v, was %v", got, busy)
	}
	if h.MemoryUsedBytes() != memBusy {
		t.Fatal("pause released memory")
	}
	// Double pause is rejected; thaw restores the load.
	if err := h.PauseVM(vms[0]); err == nil {
		t.Fatal("double pause accepted")
	}
	start := h.Clock.Now()
	for _, vm := range vms {
		if err := h.UnpauseVM(vm); err != nil {
			t.Fatal(err)
		}
	}
	thaw := time.Duration(h.Clock.Now().Sub(start)) / 30
	if thaw > time.Millisecond {
		t.Fatalf("unpause cost %v per guest, want ≪1ms", thaw)
	}
	if got := h.CPUUtilization(); got < busy*0.95 {
		t.Fatalf("utilization after thaw = %v, was %v", got, busy)
	}
}
