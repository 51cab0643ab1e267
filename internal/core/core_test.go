package core

import (
	"fmt"
	"runtime"
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
// daytime guest costs through the host, per toolstack mode: every
// networked guest pays them, so per-guest garbage that creeps back in
// fails here. The split modes take no pre-stocked shell, so each run
// also pays an inline shell prepare.
func TestHostLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const runs = 50
	budgets := []struct {
		mode   toolstack.Mode
		budget float64
	}{
		{toolstack.ModeXL, 43},
		{toolstack.ModeChaosXS, 34},
		{toolstack.ModeChaosSplit, 39},
		{toolstack.ModeChaosNoXS, 7},
		{toolstack.ModeLightVM, 9},
	}
	img := guest.Daytime()
	names := make([]string, runs+1) // AllocsPerRun adds one warm-up run
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	for _, b := range budgets {
		h := newHost(t)
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			vm, err := h.CreateVM(b.mode, names[i], img)
			i++
			if err != nil {
				t.Fatal(err)
			}
			if err := h.DestroyVM(vm); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f objects per create+destroy", b.mode, allocs)
		if allocs > b.budget {
			t.Errorf("%s: CreateVM+DestroyVM allocates %.1f objects, budget %.0f", b.mode, allocs, b.budget)
		}
	}
}

// TestHostRetainedBytes pins the heap each live daytime guest keeps,
// per toolstack mode: the simulator's own per-guest footprint, which
// bounds how many guests the largest figures can hold and how much of
// their time goes to GC marking. It holds 2,000 guests on one host
// after a warm create and measures the live heap's growth after a
// full GC. Budgets are the measured values plus about 5% headroom.
func TestHostRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes differ under the race detector")
	}
	const guests = 2000
	budgets := []struct {
		mode           toolstack.Mode
		bytes, objects float64
	}{
		{toolstack.ModeXL, 7080, 100},
		{toolstack.ModeChaosXS, 4410, 58},
		{toolstack.ModeChaosSplit, 4580, 60.5},
		{toolstack.ModeChaosNoXS, 1170, 7},
		{toolstack.ModeLightVM, 1180, 7.5},
	}
	img := guest.Daytime()
	names := make([]string, guests)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
	}
	for _, b := range budgets {
		h, err := NewHost(sched.Xeon4Ckpt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.CreateVM(b.mode, "warm", img); err != nil {
			t.Fatal(err)
		}
		vms := make([]*toolstack.VM, 0, guests)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, name := range names {
			vm, err := h.CreateVM(b.mode, name, img)
			if err != nil {
				t.Fatal(err)
			}
			vms = append(vms, vm)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		bytes := float64(after.HeapAlloc-before.HeapAlloc) / guests
		objects := float64(after.HeapObjects-before.HeapObjects) / guests
		runtime.KeepAlive(h)
		runtime.KeepAlive(vms)
		t.Logf("%s: %.0f bytes, %.1f objects per live guest", b.mode, bytes, objects)
		if bytes > b.bytes || objects > b.objects {
			t.Errorf("%s: a live guest retains %.0f bytes and %.1f objects, budget %.0f and %.1f",
				b.mode, bytes, objects, b.bytes, b.objects)
		}
	}
}

// TestHostLifecycleBytes pins the bytes one create+destroy of a daytime
// guest allocates on a host already running 1,000 of them, per store
// toolstack mode: a store whose directories are populated is where
// spine copies and trie-level recycling show. Budgets are the measured
// values plus about 5% headroom.
func TestHostLifecycleBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const live, runs = 1000, 200
	budgets := []struct {
		mode  toolstack.Mode
		bytes float64
	}{
		{toolstack.ModeXL, 2240},
		{toolstack.ModeChaosXS, 2010},
		{toolstack.ModeChaosSplit, 2150},
	}
	img := guest.Daytime()
	names := make([]string, live+runs)
	for i := range names {
		names[i] = fmt.Sprintf("b%d", i)
	}
	for _, b := range budgets {
		h, err := NewHost(sched.Xeon4Ckpt, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names[:live] {
			if _, err := h.CreateVM(b.mode, name, img); err != nil {
				t.Fatal(err)
			}
		}
		cycle := func(name string) {
			vm, err := h.CreateVM(b.mode, name, img)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.DestroyVM(vm); err != nil {
				t.Fatal(err)
			}
		}
		cycle("warm")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, name := range names[live:] {
			cycle(name)
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f bytes per create+destroy", b.mode, bytes)
		if bytes > b.bytes {
			t.Errorf("%s: CreateVM+DestroyVM allocates %.0f bytes with %d guests live, budget %.0f", b.mode, bytes, live, b.bytes)
		}
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

// TestResumeBanner saves a guest and restores it through the host: the
// restored domain's console carries exactly the one-line resume banner,
// stamped with the virtual time the guest came back.
func TestResumeBanner(t *testing.T) {
	for _, mode := range []toolstack.Mode{toolstack.ModeChaosXS, toolstack.ModeChaosNoXS} {
		h := newHost(t)
		vm, err := h.CreateVM(mode, "sleeper", guest.Daytime())
		if err != nil {
			t.Fatal(err)
		}
		cp, _, err := h.Save(vm)
		if err != nil {
			t.Fatal(err)
		}
		back, _, err := h.Restore(cp)
		if err != nil {
			t.Fatal(err)
		}
		out, err := h.Env.Console.Read(back.Dom.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("sleeper: resumed from saved state at %v\n", h.Clock.Now()); out != want {
			t.Fatalf("%s: console after restore = %q, want %q", mode, out, want)
		}
	}
}

// TestTeardownResiduePin pins what N create+destroy pairs of daytime
// guests leave behind on one host, measured against a baseline taken
// after one warm pair per mode. Bridge ports and hypervisor domains
// must return to baseline in every mode. The store does not yet: each
// store-path pair leaves its empty backend/vif/<dom> directory, one
// node per pair, where libxl would remove the emptied parent with the
// device. The host-teardown fix in ROADMAP.md removes that directory:
// then the store-path growth pinned here drops to 0 and every mode
// returns to baseline.
func TestTeardownResiduePin(t *testing.T) {
	const pairs = 20
	growth := []struct {
		mode  toolstack.Mode
		nodes int // store nodes gained per create+destroy pair
	}{
		{toolstack.ModeXL, 1},
		{toolstack.ModeChaosXS, 1},
		{toolstack.ModeChaosSplit, 1},
		{toolstack.ModeChaosNoXS, 0},
		{toolstack.ModeLightVM, 0},
	}
	img := guest.Daytime()
	for _, g := range growth {
		h := newHost(t)
		cycle := func(name string) {
			vm, err := h.CreateVM(g.mode, name, img)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.DestroyVM(vm); err != nil {
				t.Fatal(err)
			}
		}
		cycle("warm")
		nodes, ports, doms := h.Env.Store.NumNodes(), h.Env.Bridge.Ports(), h.Env.HV.NumDomains()
		for i := 0; i < pairs; i++ {
			cycle(fmt.Sprintf("g%d", i))
		}
		if got, want := h.Env.Store.NumNodes()-nodes, g.nodes*pairs; got != want {
			t.Errorf("%s: store grew by %d nodes over %d pairs, want %d", g.mode, got, pairs, want)
		}
		if got := h.Env.Bridge.Ports(); got != ports {
			t.Errorf("%s: %d bridge ports after teardown, baseline %d", g.mode, got, ports)
		}
		if got := h.Env.HV.NumDomains(); got != doms {
			t.Errorf("%s: %d domains after teardown, baseline %d", g.mode, got, doms)
		}
	}
}
