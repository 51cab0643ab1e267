package toolstack

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/trace"
)

func newEnv() *Env {
	return NewEnv(sim.NewClock(), sched.Xeon4)
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeXL: "xl", ModeChaosXS: "chaos [XS]", ModeChaosSplit: "chaos [XS+split]",
		ModeChaosNoXS: "chaos [NoXS]", ModeLightVM: "LightVM",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
	if !ModeXL.UsesStore() || ModeLightVM.UsesStore() {
		t.Fatal("UsesStore wrong")
	}
	if !ModeLightVM.UsesSplit() || ModeChaosNoXS.UsesSplit() {
		t.Fatal("UsesSplit wrong")
	}
}

// TestVMUUID pins xl's uuid text to fmt's "0000-%08d" form, including
// an id wider than the padding.
func TestVMUUID(t *testing.T) {
	for _, id := range []hv.DomID{0, 7, 12345678, 123456789} {
		if got, want := vmUUID(id), fmt.Sprintf("0000-%08d", id); got != want {
			t.Errorf("vmUUID(%d) = %q, want %q", id, got, want)
		}
	}
}

func TestCreateDestroyAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeXL, ModeChaosXS, ModeChaosSplit, ModeChaosNoXS, ModeLightVM} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv()
			drv := e.ForMode(mode)
			if mode.UsesSplit() {
				e.Pool.Register(guest.Daytime(), mode.UsesStore())
				if err := e.Pool.Replenish(); err != nil {
					t.Fatal(err)
				}
			}
			vm, err := drv.Create("g1", guest.Daytime())
			if err != nil {
				t.Fatal(err)
			}
			if !vm.Booted {
				t.Fatal("VM not booted after Create")
			}
			if vm.CreateTime <= 0 || vm.BootTime <= 0 {
				t.Fatalf("times: create=%v boot=%v", vm.CreateTime, vm.BootTime)
			}
			if e.VMs() != 1 {
				t.Fatalf("env tracks %d VMs", e.VMs())
			}
			usedBefore := e.HV.UsedMemBytes()
			if err := drv.Destroy(vm); err != nil {
				t.Fatal(err)
			}
			if e.VMs() != 0 {
				t.Fatal("VM not forgotten after destroy")
			}
			if e.HV.UsedMemBytes() >= usedBefore {
				t.Fatal("destroy did not release memory")
			}
		})
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	if _, err := drv.Create("dup", guest.Noop()); err != nil {
		t.Fatal(err)
	}
	if _, err := drv.Create("dup", guest.Noop()); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestVMLookup(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	vm, _ := drv.Create("findme", guest.Noop())
	got, err := e.VM("findme")
	if err != nil || got != vm {
		t.Fatalf("VM lookup: %v", err)
	}
	if _, err := e.VM("ghost"); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("ghost lookup: %v", err)
	}
}

func TestXLBreakdownShape(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeXL)
	vm, err := drv.Create("bd", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	bd := vm.LastBreakdown
	if bd.XenStore == 0 || bd.Devices == 0 || bd.Hypervisor == 0 || bd.Load == 0 || bd.Config == 0 {
		t.Fatalf("breakdown has empty categories: %+v", bd)
	}
	// At N=0, device creation (bash hotplug) dominates — Fig. 5:
	// "Device creation dominates the guest instantiation times when
	// the number of currently running guests is low".
	if bd.Devices <= bd.XenStore {
		t.Fatalf("at N=0 devices (%v) should dominate xenstore (%v)", bd.Devices, bd.XenStore)
	}
	// The breakdown should account for (almost all of) the total.
	sum := bd.Total()
	if sum > vm.CreateTime || vm.CreateTime-sum > vm.CreateTime/4 {
		t.Fatalf("breakdown sum %v vs create %v", sum, vm.CreateTime)
	}
}

func TestXenStoreCategoryGrows(t *testing.T) {
	// Fig. 5: "the time spent on XenStore interactions increases
	// superlinearly" while "device creation ... stays roughly constant".
	e := newEnv()
	drv := e.ForMode(ModeXL)
	first, err := drv.Create("g0", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 120; i++ {
		if _, err := drv.Create(fmt.Sprintf("g%d", i), guest.Daytime()); err != nil {
			t.Fatal(err)
		}
	}
	last, err := drv.Create("gN", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if last.LastBreakdown.XenStore < 2*first.LastBreakdown.XenStore {
		t.Fatalf("xenstore category flat: %v → %v",
			first.LastBreakdown.XenStore, last.LastBreakdown.XenStore)
	}
	ratio := float64(last.LastBreakdown.Devices) / float64(first.LastBreakdown.Devices)
	if ratio > 1.5 {
		t.Fatalf("devices category grew %.2f×, should stay ~constant", ratio)
	}
}

func TestCreationTimeOrderingAcrossModes(t *testing.T) {
	// Fig. 9 at N≈100: xl > chaos[XS] > chaos[XS+split] > chaos[NoXS]
	// ≥ LightVM.
	times := map[Mode]time.Duration{}
	for _, mode := range []Mode{ModeXL, ModeChaosXS, ModeChaosSplit, ModeChaosNoXS, ModeLightVM} {
		e := newEnv()
		drv := e.ForMode(mode)
		for i := 0; i < 100; i++ {
			if mode.UsesSplit() {
				if err := e.Pool.Replenish(); err != nil {
					t.Fatal(err)
				}
				e.Pool.Register(guest.Daytime(), mode.UsesStore())
			}
			if _, err := drv.Create(fmt.Sprintf("g%d", i), guest.Daytime()); err != nil {
				t.Fatal(err)
			}
		}
		vm, err := drv.Create("probe", guest.Daytime())
		if err != nil {
			t.Fatal(err)
		}
		times[mode] = vm.CreateTime + vm.BootTime
	}
	order := []Mode{ModeXL, ModeChaosXS, ModeChaosSplit, ModeChaosNoXS}
	for i := 0; i < len(order)-1; i++ {
		if times[order[i]] <= times[order[i+1]] {
			t.Fatalf("ordering violated: %v(%v) ≤ %v(%v); all=%v",
				order[i], times[order[i]], order[i+1], times[order[i+1]], times)
		}
	}
	if times[ModeLightVM] > times[ModeChaosNoXS] {
		t.Fatalf("LightVM (%v) slower than chaos[NoXS] (%v)", times[ModeLightVM], times[ModeChaosNoXS])
	}
}

func TestLightVMNoopFloor(t *testing.T) {
	// §6.1: "a noop unikernel with no devices and all optimizations
	// results in a minimum boot time of 2.3ms". Ours must land in the
	// same ballpark (1–4 ms).
	e := newEnv()
	drv := e.ForMode(ModeLightVM)
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	// Seed the flavor, replenish, then measure.
	e.Pool.Register(guest.Noop(), false)
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	vm, err := drv.Create("noop", guest.Noop())
	if err != nil {
		t.Fatal(err)
	}
	total := vm.CreateTime + vm.BootTime
	if total < time.Millisecond || total > 4*time.Millisecond {
		t.Fatalf("LightVM noop create+boot = %v, want ≈2.3ms", total)
	}
	if e.Pool.Stats.Misses != 0 {
		t.Fatalf("pool missed %d times", e.Pool.Stats.Misses)
	}
}

func TestLightVMFlatScaling(t *testing.T) {
	// Fig. 9: "boot times as low as 4ms going up to just 4.1ms for the
	// 1,000th VM" — creation must be essentially flat. We check 300
	// guests: growth below 30%.
	e := newEnv()
	drv := e.ForMode(ModeLightVM)
	e.Pool.Register(guest.Daytime(), false)
	var firstTime, lastTime time.Duration
	for i := 0; i < 300; i++ {
		if err := e.Pool.Replenish(); err != nil {
			t.Fatal(err)
		}
		vm, err := drv.Create(fmt.Sprintf("g%d", i), guest.Daytime())
		if err != nil {
			t.Fatal(err)
		}
		total := vm.CreateTime + vm.BootTime
		if i == 0 {
			firstTime = total
		}
		if i == 299 {
			lastTime = total
		}
	}
	if float64(lastTime) > 1.3*float64(firstTime) {
		t.Fatalf("LightVM not flat: first=%v last=%v", firstTime, lastTime)
	}
}

func TestPoolMissFallsBackInline(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeLightVM)
	// Empty pool: creation must still succeed (inline prepare) and
	// record a miss.
	vm, err := drv.Create("miss", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if e.Pool.Stats.Misses != 1 {
		t.Fatalf("misses = %d", e.Pool.Stats.Misses)
	}
	if !vm.Booted {
		t.Fatal("VM not booted after inline fallback")
	}
}

func TestPoolHitFasterThanMiss(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeLightVM)
	vmMiss, err := drv.Create("m", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	vmHit, err := drv.Create("h", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if vmHit.CreateTime >= vmMiss.CreateTime {
		t.Fatalf("pool hit (%v) not faster than miss (%v)", vmHit.CreateTime, vmMiss.CreateTime)
	}
}

func TestPoolReplenishKeepsDepth(t *testing.T) {
	e := newEnv()
	e.Pool.SetTarget(5)
	img := guest.Noop()
	e.Pool.Register(img, false)
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	if got := e.Pool.Available(img, false); got != 5 {
		t.Fatalf("pool depth %d, want 5", got)
	}
	s := e.Pool.Take(img, false)
	if s == nil {
		t.Fatal("Take returned nil with stocked pool")
	}
	if got := e.Pool.Available(img, false); got != 4 {
		t.Fatalf("depth after take %d", got)
	}
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	if got := e.Pool.Available(img, false); got != 5 {
		t.Fatalf("depth after replenish %d", got)
	}
}

func TestNoXSCreateTouchesNoStore(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	opsBefore := e.Store.Count.Ops
	if _, err := drv.Create("nostore", guest.Daytime()); err != nil {
		t.Fatal(err)
	}
	if e.Store.Count.Ops != opsBefore {
		t.Fatalf("noxs creation performed %d store ops", e.Store.Count.Ops-opsBefore)
	}
}

func TestStoreNodesPerGuest(t *testing.T) {
	// The stock toolstack leaves tens of nodes per guest; chaos leaves
	// far fewer; noxs none.
	count := func(mode Mode) int {
		e := newEnv()
		drv := e.ForMode(mode)
		for i := 0; i < 10; i++ {
			if _, err := drv.Create(fmt.Sprintf("g%d", i), guest.Daytime()); err != nil {
				t.Fatal(err)
			}
		}
		return e.Store.NumNodes() / 10
	}
	xl, chaos, noxs := count(ModeXL), count(ModeChaosXS), count(ModeChaosNoXS)
	if xl < 20 {
		t.Fatalf("xl leaves %d nodes/guest, want ≥20", xl)
	}
	if chaos >= xl {
		t.Fatalf("chaos (%d) not leaner than xl (%d)", chaos, xl)
	}
	if noxs != 0 {
		t.Fatalf("noxs left %d store nodes/guest", noxs)
	}
}

func TestDebianSlowerThanTinyxSlowerThanUnikernel(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeXL)
	uni, err := drv.Create("u", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	tx, err := drv.Create("t", guest.TinyxNoop())
	if err != nil {
		t.Fatal(err)
	}
	deb, err := drv.Create("d", guest.DebianMinimal())
	if err != nil {
		t.Fatal(err)
	}
	tu := uni.CreateTime + uni.BootTime
	tt := tx.CreateTime + tx.BootTime
	td := deb.CreateTime + deb.BootTime
	if !(tu < tt && tt < td) {
		t.Fatalf("ordering: uni=%v tinyx=%v debian=%v", tu, tt, td)
	}
	// Fig. 4 @ N=0: Debian ≈ 2s, Tinyx ≈ 540ms, daytime ≈ 83ms.
	if td < time.Second || td > 5*time.Second {
		t.Fatalf("debian create+boot = %v, want ≈2s", td)
	}
	if tt < 150*time.Millisecond || tt > 1200*time.Millisecond {
		t.Fatalf("tinyx create+boot = %v, want ≈540ms", tt)
	}
	if tu < 30*time.Millisecond || tu > 300*time.Millisecond {
		t.Fatalf("daytime create+boot = %v, want ≈100ms", tu)
	}
}

func TestMemDedupReducesFootprint(t *testing.T) {
	footprint := func(dedup bool) uint64 {
		e := newEnv()
		e.MemDedup = dedup
		drv := e.ForMode(ModeChaosNoXS)
		base := e.HV.UsedMemBytes()
		for i := 0; i < 20; i++ {
			if _, err := drv.Create(fmt.Sprintf("g%d", i), guest.Minipython()); err != nil {
				t.Fatal(err)
			}
		}
		return e.HV.UsedMemBytes() - base
	}
	plain := footprint(false)
	shared := footprint(true)
	if shared >= plain {
		t.Fatalf("dedup footprint %d not below plain %d", shared, plain)
	}
	// Saving should be substantial but not total: the private heap
	// half remains per guest.
	ratio := float64(shared) / float64(plain)
	if ratio < 0.2 || ratio > 0.9 {
		t.Fatalf("dedup ratio = %.2f", ratio)
	}
}

func TestMemDedupDestroyReleasesShares(t *testing.T) {
	e := newEnv()
	e.MemDedup = true
	drv := e.ForMode(ModeChaosNoXS)
	base := e.HV.UsedMemBytes()
	var vms []*VM
	for i := 0; i < 5; i++ {
		vm, err := drv.Create(fmt.Sprintf("g%d", i), guest.Minipython())
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	for _, vm := range vms {
		if err := drv.Destroy(vm); err != nil {
			t.Fatal(err)
		}
	}
	if e.HV.UsedMemBytes() != base {
		t.Fatalf("dedup teardown leaked: %d vs %d", e.HV.UsedMemBytes(), base)
	}
	if e.HV.Share.Regions() != 0 {
		t.Fatal("shared regions survived")
	}
}

func TestUkvmDriver(t *testing.T) {
	e := newEnv()
	drv := NewUkvm(e)
	if drv.Name() != "ukvm" {
		t.Fatal("name")
	}
	opsBefore := e.Store.Count.Ops // backends register watches at env setup
	vm, err := drv.Create("mirage", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	total := vm.CreateTime + vm.BootTime
	// The §9 citation: ~10ms boots.
	if total < 5*time.Millisecond || total > 15*time.Millisecond {
		t.Fatalf("ukvm create+boot = %v, want ≈10ms", total)
	}
	// ukvm never touches the store.
	if e.Store.Count.Ops != opsBefore {
		t.Fatalf("ukvm performed %d store ops", e.Store.Count.Ops-opsBefore)
	}
	if err := drv.Destroy(vm); err != nil {
		t.Fatal(err)
	}
	if e.VMs() != 0 || e.HV.NumDomains() != 0 {
		t.Fatal("ukvm teardown incomplete")
	}
	// Only unikernels are accepted.
	if _, err := drv.Create("fat", guest.TinyxNoop()); err == nil {
		t.Fatal("ukvm accepted a Linux guest")
	}
}

func TestConsoleBanner(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	vm, err := drv.Create("bannered", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Console.Read(vm.Dom.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bannered", "daytime", "noxs", "ready in"} {
		if !strings.Contains(out, want) {
			t.Fatalf("console %q missing %q", out, want)
		}
	}
	if err := drv.Destroy(vm); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Console.Read(vm.Dom.ID); err == nil {
		t.Fatal("console survived destroy")
	}
}

func TestCloneVM(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	parent, err := drv.Create("parent", guest.Minipython())
	if err != nil {
		t.Fatal(err)
	}
	memAfterParent := e.HV.UsedMemBytes()

	c1, err := e.CloneVM(parent, "clone-1")
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Booted || c1.BootTime != 0 {
		t.Fatalf("clone state: booted=%v boot=%v", c1.Booted, c1.BootTime)
	}
	firstCloneMem := e.HV.UsedMemBytes() - memAfterParent
	c2, err := e.CloneVM(parent, "clone-2")
	if err != nil {
		t.Fatal(err)
	}
	secondCloneMem := e.HV.UsedMemBytes() - memAfterParent - firstCloneMem
	// The second clone shares the snapshot: far cheaper in memory.
	if secondCloneMem*2 >= firstCloneMem {
		t.Fatalf("clone memory: first=%d second=%d (no sharing?)", firstCloneMem, secondCloneMem)
	}
	// Later clones are faster too (no snapshot pass).
	if c2.CreateTime >= c1.CreateTime {
		t.Fatalf("second clone (%v) not faster than first (%v)", c2.CreateTime, c1.CreateTime)
	}
	// Clones have their own devices.
	entries, err := e.HV.DevicePageMap(c2.Dom.ID, nil)
	if err != nil || len(entries) != 2 { // vif + sysctl
		t.Fatalf("clone devices = %v, %v", entries, err)
	}
	// Teardown order doesn't matter: parent first, then clones.
	if err := drv.Destroy(parent); err != nil {
		t.Fatal(err)
	}
	if err := drv.Destroy(c1); err != nil {
		t.Fatal(err)
	}
	if err := drv.Destroy(c2); err != nil {
		t.Fatal(err)
	}
	if e.HV.Share.Regions() != 0 {
		t.Fatal("clone snapshot leaked")
	}
	if e.VMs() != 0 || e.HV.NumDomains() != 0 {
		t.Fatal("teardown incomplete")
	}
}

func TestCloneRequiresRunningParent(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	parent, err := drv.Create("p", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	// A running parent can be cloned; a destroyed one cannot.
	if _, err := e.CloneVM(parent, "c"); err != nil {
		t.Fatalf("clone of running parent: %v", err)
	}
	if err := drv.Destroy(parent); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CloneVM(parent, "c2"); err == nil {
		t.Fatal("clone of destroyed parent accepted")
	}
	// Duplicate clone names rejected.
	p2, _ := drv.Create("p2", guest.Daytime())
	if _, err := e.CloneVM(p2, "c"); err == nil {
		t.Fatal("duplicate clone name accepted")
	}
}

func TestCloneFasterThanBootForHeavyGuests(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	parent, err := drv.Create("deb", guest.DebianMinimal())
	if err != nil {
		t.Fatal(err)
	}
	bootTotal := parent.CreateTime + parent.BootTime
	// Warm the snapshot.
	warm, err := e.CloneVM(parent, "warm")
	if err != nil {
		t.Fatal(err)
	}
	_ = warm
	clone, err := e.CloneVM(parent, "fast")
	if err != nil {
		t.Fatal(err)
	}
	// A Debian boot is ~2s; a warm clone must be orders of magnitude
	// faster (Potemkin's whole point).
	if clone.CreateTime*20 >= bootTotal {
		t.Fatalf("clone %v vs boot %v — not a big enough win", clone.CreateTime, bootTotal)
	}
}

// meanAllocs is the mean number of allocations per call of f over n
// calls, after one warm-up call. Unlike AllocsPerRun it keeps the
// fraction: truncating to whole allocations turns the race detector's
// random sync.Pool drops into swings of a whole allocation.
func meanAllocs(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestTraceOffSkipsDetails: a disabled trace log costs nothing on the
// hot path — a create/destroy cycle does not even build the event
// details (mode strings) it would have recorded. The split mode runs
// on an empty pool, so each create prepares its shell inline and the
// untraced cycle must also skip building the prepare event's flavor
// key.
func TestTraceOffSkipsDetails(t *testing.T) {
	for _, mode := range []Mode{ModeChaosNoXS, ModeXL, ModeLightVM} {
		cycle := func(e *Env) float64 {
			drv := e.ForMode(mode)
			return meanAllocs(1000, func() {
				vm, err := drv.Create("g", guest.Daytime())
				if err != nil {
					t.Fatal(err)
				}
				if err := drv.Destroy(vm); err != nil {
					t.Fatal(err)
				}
			})
		}
		off := newEnv()
		on := newEnv()
		// A one-event cap: past it the log drops without growing, so
		// the only extra work tracing does is building the details.
		on.Trace = trace.New(on.Clock, 1)
		offAllocs, onAllocs := cycle(off), cycle(on)
		t.Logf("%v: %.2f allocs/cycle traced, %.2f untraced", mode, onAllocs, offAllocs)
		// The prepare key costs at least its result string.
		want, what := 2.0, "the 2 event details"
		if mode.UsesSplit() {
			want, what = 3, "the 2 event details and the prepare key"
		}
		// Without the race detector the means are exact. With it, pool
		// drops move each by a fraction of an allocation, so allow half
		// of one: a cycle that still builds any one detail saves at
		// least one allocation too few.
		if onAllocs-offAllocs < want-0.5 {
			t.Fatalf("%v: tracing off saves %.2f allocs per create/destroy cycle, want %v (%s)",
				mode, onAllocs-offAllocs, want, what)
		}
	}
}

// TestFsckFlagsOrphanConsoleRing plants a console ring for a domain
// that is already gone: Fsck must name it under console/orphan-ring,
// and reaping the domain's leftovers must take the ring with them.
func TestFsckFlagsOrphanConsoleRing(t *testing.T) {
	e := newEnv()
	drv := e.ForMode(ModeChaosNoXS)
	vm, err := drv.Create("leaky", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	dead := vm.Dom.ID
	if err := drv.Destroy(vm); err != nil {
		t.Fatal(err)
	}
	if v := Fsck(e); len(v) > 0 {
		t.Fatalf("clean destroy: %v", v)
	}
	e.Console.Attach(dead) // the planted leak
	v := Fsck(e)
	if len(v) != 1 || v[0].Layer != "console" || v[0].Kind != "orphan-ring" || v[0].Subject != strconv.Itoa(int(dead)) {
		t.Fatalf("fsck = %v, want one console/orphan-ring for dom %d", v, dead)
	}
	_ = e.reapDomain(dead, false, "", nil)
	if v := Fsck(e); len(v) > 0 {
		t.Fatalf("after reap: %v", v)
	}
}

// TestFlavorKeyBytes pins the registry key format: replenish and reap
// run in sorted key order, so its bytes are part of every timeline.
// The key of (img, store) folds the devices flavorFor gives the shell,
// and Take finds the entry Register made under it.
func TestFlavorKeyBytes(t *testing.T) {
	for _, img := range []guest.Image{guest.Noop(), guest.Daytime(), guest.DebianMinimal()} {
		for _, store := range []bool{true, false} {
			f := flavorFor(img, store)
			want := fmt.Sprintf("%s/%d/%v", img.Name, img.MemBytes, store)
			for _, d := range f.Devices {
				want += "/" + d.Kind.String()
			}
			if got := f.key(); got != want {
				t.Fatalf("key = %q, want %q", got, want)
			}
			e := newEnv()
			e.Pool.Register(img, store)
			e.Pool.Take(img, store)
			if len(e.Pool.flavors) != 1 || e.Pool.flavors[want] == nil {
				t.Fatalf("Take(%s, %v) did not find the registered flavor %q", img.Name, store, want)
			}
		}
	}
}

// TestPoolLastRegistrationWins registers, takes and registers again
// under one key with different images: the registry keeps one entry,
// holding the latest image.
func TestPoolLastRegistrationWins(t *testing.T) {
	e := newEnv()
	img := guest.Daytime()
	e.Pool.Register(img, false)
	ent := e.Pool.flavors[flavorFor(img, false).key()]
	img.SizeBytes++
	e.Pool.Take(img, false)
	if len(e.Pool.flavors) != 1 || len(e.Pool.order) != 1 || ent.flavor.Img.SizeBytes != img.SizeBytes {
		t.Fatalf("after Take: %d entries, image size %d, want 1 entry of size %d",
			len(e.Pool.flavors), ent.flavor.Img.SizeBytes, img.SizeBytes)
	}
	img.SizeBytes++
	e.Pool.Register(img, false)
	if len(e.Pool.flavors) != 1 || ent.flavor.Img.SizeBytes != img.SizeBytes {
		t.Fatalf("Register kept image size %d, want %d", ent.flavor.Img.SizeBytes, img.SizeBytes)
	}
}

// TestInlinePreparePopulatesCallersImage: a pool-miss Prepare builds
// the shell from the caller's image even when another Register of the
// same key replaced the registry's image in between. With memory dedup
// the domain's shared region is sized from the image it was populated
// from.
func TestInlinePreparePopulatesCallersImage(t *testing.T) {
	e := newEnv()
	e.MemDedup = true
	mine := guest.Daytime()
	other := mine
	other.SizeBytes += 64 << 10
	if e.Pool.Take(mine, false) != nil {
		t.Fatal("empty pool returned a shell")
	}
	e.Pool.Register(other, false) // another caller, in the miss window
	s, err := e.Pool.Prepare(mine, false)
	if err != nil {
		t.Fatal(err)
	}
	want := mine.TotalSize() + (mine.MemBytes-mine.TotalSize())/2
	if s.Dom.SharedBytes != want {
		t.Fatalf("shell shares %d bytes, want %d (populated from the registry's image, not the caller's)",
			s.Dom.SharedBytes, want)
	}
}
